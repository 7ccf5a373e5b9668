#ifndef HALK_COMMON_LRU_CACHE_H_
#define HALK_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace halk {

/// Charges one unit per entry, so the budget is an entry count.
struct UnitCost {
  template <typename V>
  size_t operator()(const V& /*value*/) const {
    return 1;
  }
};

/// The one bounded map with least-recently-used eviction: the answer
/// cache, the subtree cache, the slow-query log and both query-statistics
/// maps are instances. `Cost` prices an entry against the budget (one per
/// entry by default, or bytes); whenever the charged total exceeds the
/// budget, entries are evicted from the least-recently-used end.
///
/// Thread-safe; one mutex guards the recency list and the index. The
/// critical sections (a hash lookup and a splice) are far cheaper than the
/// work the users shield with them, so a sharded design would be
/// premature. Callbacks passed to Read, Update and EraseIf run under that
/// mutex and must not call back into the map.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Cost = UnitCost>
class LruCache {
 public:
  explicit LruCache(size_t budget) : budget_(budget) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Copies the value into `*out` (if non-null), marks the entry
  /// most-recently-used and counts a hit; counts a miss otherwise.
  bool Get(const K& key, V* out) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    if (out != nullptr) *out = it->second->second;
    return true;
  }

  /// Get without the copy: on a hit, applies `fn(const V&)` to the entry
  /// under the mutex (after marking it most-recently-used and counting the
  /// hit), so the caller copies out only what it needs. Counts a miss and
  /// returns false when absent.
  template <typename Fn>
  bool Read(const K& key, Fn&& fn) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    fn(static_cast<const V&>(it->second->second));
    return true;
  }

  /// Presence probe without recency or counter side effects.
  bool Contains(const K& key) const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return index_.find(key) != index_.end();
  }

  /// Copies the value into `*out` without recency or counter side effects.
  bool Peek(const K& key, V* out) const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    *out = it->second->second;
    return true;
  }

  /// Inserts or overwrites as most-recently-used, then evicts until the
  /// budget holds. An entry costing more than the whole budget is dropped
  /// (an existing entry under the same key is left as it was).
  void Put(const K& key, V value) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const size_t cost = Cost()(value);
    if (cost > budget_) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      charged_ -= Cost()(it->second->second);
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.emplace_front(key, std::move(value));
      index_.emplace(key, order_.begin());
    }
    charged_ += cost;
    EvictOverBudget();
  }

  /// Applies `fn(V&)` in place to the entry for `key` — created
  /// value-initialized when absent — marks it most-recently-used, then
  /// evicts until the budget holds.
  template <typename Fn>
  void Update(const K& key, Fn&& fn) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      order_.emplace_front(key, V{});
      index_.emplace(key, order_.begin());
    } else {
      order_.splice(order_.begin(), order_, it->second);
      charged_ -= Cost()(order_.front().second);
    }
    V& value = order_.front().second;
    fn(value);
    charged_ += Cost()(value);
    EvictOverBudget();
  }

  /// Drops every entry for which `pred(key, value)` holds; returns how
  /// many. Counted in erased(), not in evictions().
  template <typename Pred>
  size_t EraseIf(Pred&& pred) HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t erased = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(static_cast<const K&>(it->first),
               static_cast<const V&>(it->second))) {
        charged_ -= Cost()(it->second);
        index_.erase(it->first);
        it = order_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    erased_ += static_cast<int64_t>(erased);
    return erased;
  }

  /// Copies of every entry, most-recently-used first.
  std::vector<std::pair<K, V>> Snapshot() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return {order_.begin(), order_.end()};
  }

  /// Drops every entry; the counters keep their values.
  void Clear() HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    order_.clear();
    index_.clear();
    charged_ = 0;
  }

  size_t size() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return index_.size();
  }
  /// The budget: entries under UnitCost, bytes under a byte cost.
  size_t capacity() const { return budget_; }
  /// Total cost of the entries held (== size() under UnitCost).
  size_t charged() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return charged_;
  }

  int64_t hits() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  int64_t misses() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }
  int64_t evictions() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return evictions_;
  }
  int64_t erased() const HALK_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return erased_;
  }

 private:
  using Order = std::list<std::pair<K, V>>;

  void EvictOverBudget() HALK_REQUIRES(mu_) {
    while (charged_ > budget_ && !order_.empty()) {
      charged_ -= Cost()(order_.back().second);
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  const size_t budget_;
  mutable Mutex mu_;
  /// front = most recently used
  Order order_ HALK_GUARDED_BY(mu_);
  std::unordered_map<K, typename Order::iterator, Hash> index_
      HALK_GUARDED_BY(mu_);
  size_t charged_ HALK_GUARDED_BY(mu_) = 0;
  int64_t hits_ HALK_GUARDED_BY(mu_) = 0;
  int64_t misses_ HALK_GUARDED_BY(mu_) = 0;
  int64_t evictions_ HALK_GUARDED_BY(mu_) = 0;
  int64_t erased_ HALK_GUARDED_BY(mu_) = 0;
};

}  // namespace halk

#endif  // HALK_COMMON_LRU_CACHE_H_
