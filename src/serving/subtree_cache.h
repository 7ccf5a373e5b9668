#ifndef HALK_SERVING_SUBTREE_CACHE_H_
#define HALK_SERVING_SUBTREE_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/lru_cache.h"
#include "query/fingerprint.h"

namespace halk::serving {

/// One cached subtree embedding (SubtreeCache::Entry).
struct SubtreeCacheEntry {
  /// Center row followed by length row: 2·d floats.
  std::vector<float> row;
  /// Sorted distinct relations of the subtree (invalidation tags).
  std::vector<int64_t> relations;
};

/// Charged bytes of a subtree entry: payload plus a fixed estimate of
/// list/map node overhead, so millions of tiny entries cannot blow past
/// the budget.
struct SubtreeEntryBytes {
  static constexpr size_t kNodeOverheadBytes = 96;
  size_t operator()(const SubtreeCacheEntry& entry) const {
    return entry.row.size() * sizeof(float) +
           entry.relations.size() * sizeof(int64_t) + kNodeOverheadBytes;
  }
};

/// Intermediate-result cache of the planner path: one embedding row
/// (center row ‖ length row, 2·d floats) per unique subtree fingerprint,
/// shared by every serving worker. Where the final-answer cache only pays
/// off when whole queries repeat, this one hits whenever any *subtree*
/// repeats across requests, which diverse workloads do constantly.
///
/// The common LRU map budgeted in bytes — entries are small but unbounded
/// in count — plus an invalidation hook: each entry is tagged with the
/// sorted relations of its subtree, so a KG update along relation r can
/// evict exactly the embeddings it staled with InvalidateRelation(r).
/// (Entity or parameter updates are coarser — use Clear().) Thread-safe.
class SubtreeCache : public LruCache<query::Fingerprint, SubtreeCacheEntry,
                                     query::FingerprintHash,
                                     SubtreeEntryBytes> {
 public:
  using Entry = SubtreeCacheEntry;

  explicit SubtreeCache(size_t capacity_bytes) : LruCache(capacity_bytes) {}

  /// Drops every entry whose subtree uses `relation`; returns the number
  /// evicted. Call after adding/removing triples of that relation.
  size_t InvalidateRelation(int64_t relation) {
    return EraseIf([relation](const query::Fingerprint&, const Entry& entry) {
      return std::binary_search(entry.relations.begin(),
                                entry.relations.end(), relation);
    });
  }

  size_t bytes() const { return charged(); }
  size_t capacity_bytes() const { return capacity(); }
  int64_t invalidations() const { return erased(); }
};

}  // namespace halk::serving

#endif  // HALK_SERVING_SUBTREE_CACHE_H_
