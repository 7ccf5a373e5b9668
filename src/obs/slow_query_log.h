#ifndef HALK_OBS_SLOW_QUERY_LOG_H_
#define HALK_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace halk::obs {

/// Bounded log of the traces of recent slow requests, keyed by query
/// fingerprint so a single hot pathological query occupies one entry no
/// matter how often it recurs (its hit count and latest/worst trace are
/// updated in place). Least-recently-slow entries are evicted beyond
/// `capacity` (one common LRU map, common/lru_cache.h). Thread-safe;
/// Offer is off the hot path (it only runs for requests that already blew
/// the threshold).
class SlowQueryLog {
 public:
  /// `threshold_ns` <= 0 rejects everything (a disabled log).
  SlowQueryLog(size_t capacity, int64_t threshold_ns);

  int64_t threshold_ns() const HALK_EXCLUDES(mu_);
  void set_threshold_ns(int64_t threshold_ns) HALK_EXCLUDES(mu_);
  size_t capacity() const { return entries_.capacity(); }

  /// Records `trace` under `fingerprint` when its duration is at or above
  /// the threshold; returns whether it was kept. An existing entry for the
  /// fingerprint is refreshed (hits + 1, latest trace, worst duration).
  /// `plan_nodes` / `dedup_ratio` describe the plan that served the
  /// request (0 off the planner path) — the same fields the query-stats
  /// store aggregates, so a slow entry joins to /queryz by fingerprint.
  bool Offer(const std::string& fingerprint, Trace trace,
             int64_t plan_nodes = 0, double dedup_ratio = 0.0)
      HALK_EXCLUDES(mu_);

  struct Entry {
    std::string fingerprint;
    Trace trace;          // the most recent qualifying trace
    /// Trace id of `trace`, retained standalone so a slow-log line can be
    /// joined to its exported Chrome trace / scraped histogram exemplar
    /// even after the trace's spans age out of the ring.
    uint64_t trace_id = 0;
    int64_t worst_ns = 0;  // slowest duration seen for this fingerprint
    int64_t hits = 0;      // qualifying requests, including evicted history
    /// Plan shape of the latest qualifying request: reachable plan nodes
    /// and the chunk plan's dedup ratio; 0 off the planner path.
    int64_t plan_nodes = 0;
    double dedup_ratio = 0.0;
  };

  /// Entries most-recently-slow first.
  std::vector<Entry> Entries() const;
  size_t size() const { return entries_.size(); }
  void Clear() { entries_.Clear(); }

 private:
  mutable Mutex mu_;
  int64_t threshold_ns_ HALK_GUARDED_BY(mu_);
  /// Keyed by fingerprint; the stored Entry's own `fingerprint` stays empty
  /// (Entries fills it from the key), so no entry holds a third copy of
  /// its key.
  LruCache<std::string, Entry> entries_;
};

}  // namespace halk::obs

#endif  // HALK_OBS_SLOW_QUERY_LOG_H_
