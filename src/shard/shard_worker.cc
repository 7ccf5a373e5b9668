#include "shard/shard_worker.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>

#include "common/logging.h"

namespace halk::shard {

const char* ReplicaHealthName(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kSuspect:
      return "suspect";
    case ReplicaHealth::kDown:
      return "down";
  }
  return "unknown";
}

void AnnotateScan(obs::SpanGuard* span, const core::ScanStats& stats) {
  if (!span->active()) return;
  span->Annotate("entities_scanned",
                 static_cast<double>(stats.entities_scanned));
  span->Annotate("entities_pruned", static_cast<double>(stats.entities_pruned));
  span->Annotate("early_exit_rate",
                 stats.entities_scanned == 0
                     ? 0.0
                     : static_cast<double>(stats.entities_pruned) /
                           static_cast<double>(stats.entities_scanned));
  if (stats.column_blocks_scanned + stats.column_blocks_skipped > 0) {
    // Store-backed scans only: pages read vs never faulted in.
    span->Annotate("column_blocks_scanned",
                   static_cast<double>(stats.column_blocks_scanned));
    span->Annotate("column_blocks_skipped",
                   static_cast<double>(stats.column_blocks_skipped));
    span->Annotate("entities_reranked",
                   static_cast<double>(stats.entities_reranked));
  }
}

ShardWorker::ShardWorker(const core::QueryModel* model, EntityRange range,
                         int shard_index, int replica_index,
                         ShardFaultInjector* faults, size_t queue_capacity,
                         int down_after_failures,
                         const ShardInstruments& instruments, int pin_cpu)
    : model_(model),
      range_(range),
      shard_index_(shard_index),
      replica_index_(replica_index),
      down_after_failures_(down_after_failures),
      faults_(faults),
      instruments_(instruments),
      pin_cpu_(pin_cpu),
      queue_(queue_capacity) {
  HALK_CHECK(model != nullptr);
  HALK_CHECK_GE(range.begin, 0);
  HALK_CHECK_GE(range.end, range.begin);
  thread_ = std::thread([this] { Loop(); });
}

ShardWorker::~ShardWorker() { Stop(); }

void ShardWorker::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

Status ShardWorker::Submit(std::unique_ptr<ShardTask> task) {
  return queue_.TryPush(std::move(task));
}

void ShardWorker::MarkFailure() {
  // order: acq_rel makes concurrent demotions agree on the streak count;
  // the release store pairs with the acquire load in health() so a
  // coordinator that observes kDown also observes the streak behind it.
  const int streak = failure_streak_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const int state = static_cast<int>(streak >= down_after_failures_
                                         ? ReplicaHealth::kDown
                                         : ReplicaHealth::kSuspect);
  health_.store(state, std::memory_order_release);
  if (instruments_.health != nullptr) instruments_.health->Set(state);
}

void ShardWorker::MarkSuccess() {
  // order: release pairs with the acquire load in health(); clearing the
  // streak must not be reordered after the revive becomes visible.
  failure_streak_.store(0, std::memory_order_release);
  health_.store(static_cast<int>(ReplicaHealth::kHealthy),
                std::memory_order_release);
  if (instruments_.health != nullptr) {
    instruments_.health->Set(static_cast<int>(ReplicaHealth::kHealthy));
  }
}

void ShardWorker::Loop() {
#ifdef __linux__
  if (pin_cpu_ >= 0) {
    // Best effort: a failed setaffinity (restricted cpuset, CPU offline)
    // just leaves the thread floating.
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(pin_cpu_), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  std::vector<std::unique_ptr<ShardTask>> batch;
  while (queue_.PopBatch(&batch, 1, std::chrono::microseconds::zero())) {
    Serve(batch[0].get());
    batch.clear();
  }
}

void ShardWorker::Serve(ShardTask* task) {
  // order: statistics counter; readers tolerate staleness.
  tasks_served_.fetch_add(1, std::memory_order_relaxed);
  if (faults_ != nullptr) {
    std::chrono::microseconds delay{0};
    const Status injected = faults_->OnCall(shard_index_, replica_index_, &delay);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    if (!injected.ok()) {
      task->result.set_value(injected);
      return;
    }
  }
  // A task the coordinator has already given up on is not worth scoring;
  // its promise result is never read, but must still be fulfilled.
  if (std::chrono::steady_clock::now() > task->deadline) {
    task->result.set_value(
        Status::DeadlineExceeded("shard task past its deadline"));
    return;
  }

  // Min over branches per entity in the owned range, streamed through the
  // model's bound-aware top-k kernel — the partial ranking the coordinator
  // k-way merges.
  const BranchSet& branches = *task->branches;
  std::vector<core::BranchRef> refs;
  refs.reserve(branches.rows.size());
  for (const auto& [embedding_index, row] : branches.rows) {
    refs.push_back({&branches.embeddings[embedding_index], row});
  }
  obs::SpanGuard scan(task->trace, "replica_scan");
  core::TopKAccumulator acc(task->k);
  core::ScanStats stats;
  serving::Histogram* scan_us = instruments_.scan_us;
  const int64_t scan_start = scan_us != nullptr ? obs::NowNs() : 0;
  model_->AccumulateTopKRange(refs, range_.begin, range_.end, &acc, &stats);
  if (scan_us != nullptr) {
    // The request's trace id rides along as the bucket exemplar so a slow
    // scraped scan bucket names a concrete trace.
    scan_us->Observe(static_cast<double>(obs::NowNs() - scan_start) / 1e3,
                     task->trace.trace_id);
  }
  if (instruments_.entities_scanned != nullptr) {
    instruments_.entities_scanned->Increment(stats.entities_scanned);
  }
  if (instruments_.entities_pruned != nullptr) {
    instruments_.entities_pruned->Increment(stats.entities_pruned);
  }
  if (instruments_.entities_reranked != nullptr) {
    instruments_.entities_reranked->Increment(stats.entities_reranked);
  }
  if (scan.active()) {
    scan.Annotate("shard", shard_index_);
    scan.Annotate("replica", replica_index_);
  }
  AnnotateScan(&scan, stats);
  scan.End();
  task->result.set_value(acc.Take());
}

}  // namespace halk::shard
