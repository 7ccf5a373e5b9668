#ifndef HALK_SERVING_LRU_CACHE_H_
#define HALK_SERVING_LRU_CACHE_H_

#include "common/lru_cache.h"

namespace halk::serving {

/// The answer cache is the common bounded map (common/lru_cache.h),
/// budgeted in entries.
using halk::LruCache;

}  // namespace halk::serving

#endif  // HALK_SERVING_LRU_CACHE_H_
