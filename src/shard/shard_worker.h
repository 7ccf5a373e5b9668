#ifndef HALK_SHARD_SHARD_WORKER_H_
#define HALK_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "obs/trace.h"
#include "serving/metrics.h"
#include "serving/request_queue.h"
#include "shard/fault_injector.h"

namespace halk::shard {

/// Half-open slice [begin, end) of the entity-id space owned by one shard.
struct EntityRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// The embedded form of one query after DNF expansion: each entry of
/// `rows` names row `second` of `embeddings[first]`. EmbeddingBatch holds
/// cheap value-semantic tensor handles, so a BranchSet shares the
/// underlying buffers rather than copying them.
struct BranchSet {
  std::vector<core::EmbeddingBatch> embeddings;
  std::vector<std::pair<size_t, int64_t>> rows;
};

/// A scatter task: score the worker's entity range against every branch
/// (min across branches per entity — the DNF union semantics) and return
/// the local top-k. Tasks own their BranchSet through a shared_ptr so a
/// task abandoned by the coordinator (deadline failover) can still run to
/// completion safely.
struct ShardTask {
  std::shared_ptr<const BranchSet> branches;
  int64_t k = 0;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Request trace handle; when active, the worker records a replica_scan
  /// span (shard/replica/scan counters annotated) under it.
  obs::TraceContext trace;
  std::promise<Result<std::vector<core::ScoredEntity>>> result;
};

/// Coordinator-visible availability of one replica. Healthy replicas are
/// preferred for scatter; a failure demotes to suspect; enough consecutive
/// failures (ShardOptions::down_after_failures) demote to down, and down
/// replicas are skipped until a later success path revives them.
enum class ReplicaHealth { kHealthy = 0, kSuspect = 1, kDown = 2 };

const char* ReplicaHealthName(ReplicaHealth health);

/// Metrics a replica feeds; each may be null. `scan_us` receives per-task
/// scan latency; `health` mirrors the replica's ReplicaHealth as its
/// numeric value (0 healthy, 1 suspect, 2 down); `entities_scanned` /
/// `entities_pruned` / `entities_reranked` accumulate the scan kernel's
/// ScanStats (the registry-wide `scan.*` counters the unsharded server path
/// feeds too).
struct ShardInstruments {
  serving::Histogram* scan_us = nullptr;
  serving::Gauge* health = nullptr;
  serving::Counter* entities_scanned = nullptr;
  serving::Counter* entities_pruned = nullptr;
  serving::Counter* entities_reranked = nullptr;
};

/// Annotates an active rank-scan span (the sharded `replica_scan`, the
/// unsharded `rank`) with the kernel's counters: entities scanned and
/// pruned, the early-exit rate, and — store-backed scans only — column
/// blocks read vs. skipped and the prefilter survivors that ran the exact
/// kernel. No-op on an inactive span.
void AnnotateScan(obs::SpanGuard* span, const core::ScanStats& stats);

/// One replica of one shard: a dedicated thread draining its own bounded
/// task queue and computing partial distances over a contiguous read-only
/// view of the model's entity table (trained parameters are never copied).
class ShardWorker {
 public:
  /// `model`, `faults` (optional), and the instruments (optional) must
  /// outlive the worker. `pin_cpu` >= 0 pins the worker thread to that CPU
  /// (best effort, Linux only) so scans keep their cache and NUMA locality
  /// instead of migrating between cores.
  ShardWorker(const core::QueryModel* model, EntityRange range,
              int shard_index, int replica_index, ShardFaultInjector* faults,
              size_t queue_capacity, int down_after_failures,
              const ShardInstruments& instruments = {}, int pin_cpu = -1);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Enqueues a task; kUnavailable when the queue is full or stopped.
  [[nodiscard]] Status Submit(std::unique_ptr<ShardTask> task);

  /// Closes the queue (pending tasks still drain) and joins the thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  ReplicaHealth health() const {
    // order: acquire pairs with the release stores in MarkFailure /
    // MarkSuccess so health transitions are seen in order.
    return static_cast<ReplicaHealth>(
        health_.load(std::memory_order_acquire));
  }
  /// Demotes: healthy -> suspect, and to down after
  /// `down_after_failures` consecutive failures.
  void MarkFailure();
  /// Restores the replica to healthy and clears the failure streak.
  void MarkSuccess();

  const EntityRange& range() const { return range_; }
  int shard_index() const { return shard_index_; }
  int replica_index() const { return replica_index_; }
  int64_t tasks_served() const {
    // order: statistics read; staleness is acceptable.
    return tasks_served_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void Serve(ShardTask* task);

  const core::QueryModel* model_;
  const EntityRange range_;
  const int shard_index_;
  const int replica_index_;
  const int down_after_failures_;
  ShardFaultInjector* faults_;            // may be null
  const ShardInstruments instruments_;
  const int pin_cpu_;                     // -1 = unpinned

  serving::BoundedQueue<std::unique_ptr<ShardTask>> queue_;
  std::atomic<int> health_{static_cast<int>(ReplicaHealth::kHealthy)};
  std::atomic<int> failure_streak_{0};
  std::atomic<int64_t> tasks_served_{0};
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

}  // namespace halk::shard

#endif  // HALK_SHARD_SHARD_WORKER_H_

