#ifndef HALK_SHARD_COORDINATOR_H_
#define HALK_SHARD_COORDINATOR_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "obs/trace.h"
#include "query/dag.h"
#include "serving/metrics.h"
#include "shard/fault_injector.h"
#include "shard/shard_worker.h"

namespace halk::shard {

struct ShardOptions {
  /// Contiguous entity-table shards scored in parallel.
  int num_shards = 4;
  /// Replicas per shard; each replica is its own worker thread over the
  /// same range, so R > 1 buys availability, not throughput.
  int replication = 1;
  /// Per-replica task-queue capacity.
  size_t queue_capacity = 256;
  /// Consecutive failed calls before a replica is marked down and skipped
  /// by scatter (any later success revives it to healthy).
  int down_after_failures = 3;
  /// Pin each worker thread to CPU (shard * replication + replica) mod
  /// hardware_concurrency (best effort, Linux only). Keeps per-shard cache
  /// and page locality under out-of-core scans; benches at 10^6+ entities
  /// turn this on.
  bool pin_threads = false;
};

/// Outcome of one scatter-gather top-k. `coverage` is the fraction of the
/// entity table actually scored; `status` is OK at full coverage,
/// kPartialResult when at least one shard had no live replica (the entries
/// are still the exact top-k of the covered fraction), and kUnavailable
/// when nothing was covered at all.
struct ShardedTopK {
  std::vector<core::ScoredEntity> entries;
  double coverage = 1.0;
  Status status;

  bool ok() const { return status.ok(); }
  bool partial() const {
    return status.code() == StatusCode::kPartialResult;
  }
};

/// Scatter-gather ranking over a sharded entity store. The entity table is
/// partitioned into `num_shards` contiguous slabs; each slab is served by
/// `replication` ShardWorker threads holding read-only views of the trained
/// parameters. A request broadcasts its embedded DNF branches to one live
/// replica per shard, k-way merges the partial top-k heaps, and — because
/// every path orders by (distance, entity id) — reproduces Evaluator::TopK
/// bit-for-bit at any shard count while replicas are healthy.
///
/// Failure semantics: a replica that fails a call (or misses the request
/// deadline) is demoted and the shard fails over to the next live replica;
/// when no replica of a shard answers, the request degrades to a partial
/// result carrying its coverage instead of failing.
class ShardCoordinator {
 public:
  /// `model`, `faults` (optional), and `metrics` (optional) must outlive
  /// the coordinator. When `metrics` is given, the coordinator exports
  /// `shard.*` instruments: request/partial/deadline counters, gather
  /// latency, labeled per-shard `shard.tasks{shard=...}` /
  /// `shard.failovers{shard=...}` counters, per-replica
  /// `shard.scan_us{shard=...,replica=...}` scan-latency histograms,
  /// `shard.replica_health{shard=...,replica=...}` gauges mirroring each
  /// replica's ReplicaHealth (0 healthy, 1 suspect, 2 down), and the
  /// registry-wide `scan.entities_scanned` / `scan.entities_pruned` /
  /// `scan.entities_reranked` kernel counters.
  ShardCoordinator(core::QueryModel* model, const ShardOptions& options,
                   ShardFaultInjector* faults = nullptr,
                   serving::MetricsRegistry* metrics = nullptr);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Scatter-gather over pre-embedded branches (min across branches per
  /// entity). `deadline` bounds the whole gather; waits are hedged so that
  /// while a shard still has untried replicas, one attempt only gets an
  /// even split of the remaining budget. A replica that misses its slice is
  /// abandoned (tasks own the BranchSet, so this is safe) and the shard
  /// fails over with the time left. With an active `trace`, the gather
  /// records a `scatter` span (per-replica `replica_scan` children plus
  /// `failover` / `hedged_wait_expired` events) and a sibling `merge` span.
  ShardedTopK TopKEmbedded(const BranchSet& branches, int64_t k,
                           std::chrono::steady_clock::time_point deadline =
                               std::chrono::steady_clock::time_point::max(),
                           const obs::TraceContext& trace = {});

  /// Convenience: DNF-expands and embeds `query` exactly as Evaluator does
  /// (one single-row EmbedQueries per branch), then scatter-gathers.
  /// `timeout` zero means no deadline.
  ShardedTopK TopK(
      const query::QueryGraph& query, int64_t k,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Stops and joins every worker. Idempotent; also run by the destructor.
  void Stop();

  int num_shards() const { return options_.num_shards; }
  int replication() const { return options_.replication; }
  int64_t num_entities() const { return num_entities_; }
  EntityRange shard_range(int shard) const;
  ReplicaHealth replica_health(int shard, int replica) const;
  int64_t replica_tasks_served(int shard, int replica) const;

 private:
  ShardWorker* worker(int shard, int replica) const;
  /// First live replica of `shard` not yet tried this request (healthy
  /// preferred over suspect, lower index first); -1 when none remain.
  int PickReplica(int shard, const std::vector<bool>& tried) const;

  core::QueryModel* model_;
  const ShardOptions options_;
  const int64_t num_entities_;
  serving::MetricsRegistry* metrics_;  // may be null
  bool stopped_ = false;

  // workers_[shard * replication + replica]; all replicas of a shard own
  // the same entity range.
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // Metrics (null when no registry was given).
  serving::Counter* requests_ = nullptr;
  serving::Counter* partials_ = nullptr;
  serving::Counter* deadline_misses_ = nullptr;
  serving::Histogram* gather_us_ = nullptr;
  std::vector<serving::Counter*> shard_tasks_;      // per shard
  std::vector<serving::Counter*> shard_failovers_;  // per shard
};

}  // namespace halk::shard

#endif  // HALK_SHARD_COORDINATOR_H_
