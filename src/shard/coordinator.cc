#include "shard/coordinator.h"

#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "query/dnf.h"

namespace halk::shard {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

}  // namespace

ShardCoordinator::ShardCoordinator(core::QueryModel* model,
                                   const ShardOptions& options,
                                   ShardFaultInjector* faults,
                                   serving::MetricsRegistry* metrics)
    : model_(model),
      options_(options),
      num_entities_(model->config().num_entities),
      metrics_(metrics) {
  HALK_CHECK(model != nullptr);
  HALK_CHECK_GT(options_.num_shards, 0);
  HALK_CHECK_GT(options_.replication, 0);
  HALK_CHECK_GT(options_.queue_capacity, 0u);
  HALK_CHECK_GT(options_.down_after_failures, 0);

  if (metrics_ != nullptr) {
    requests_ = metrics_->GetCounter("shard.requests");
    partials_ = metrics_->GetCounter("shard.partial_results");
    deadline_misses_ = metrics_->GetCounter("shard.deadline_misses");
    gather_us_ = metrics_->GetHistogram(
        "shard.gather_us", serving::Histogram::ExponentialBounds(1.0, 2.0, 26));
    for (int s = 0; s < options_.num_shards; ++s) {
      const serving::Labels shard_label = {{"shard", std::to_string(s)}};
      shard_tasks_.push_back(metrics_->GetCounter("shard.tasks", shard_label));
      shard_failovers_.push_back(
          metrics_->GetCounter("shard.failovers", shard_label));
    }
  }

  // Contiguous balanced partition: the first `num_entities % num_shards`
  // shards own one extra entity.
  const int64_t shards = options_.num_shards;
  const int64_t base = num_entities_ / shards;
  const int64_t extra = num_entities_ % shards;
  int64_t next = 0;
  workers_.reserve(static_cast<size_t>(shards * options_.replication));
  for (int s = 0; s < options_.num_shards; ++s) {
    const int64_t size = base + (s < extra ? 1 : 0);
    const EntityRange range{next, next + size};
    next += size;
    for (int r = 0; r < options_.replication; ++r) {
      ShardInstruments instruments;
      if (metrics_ != nullptr) {
        const serving::Labels replica_labels = {
            {"shard", std::to_string(s)}, {"replica", std::to_string(r)}};
        instruments.scan_us = metrics_->GetHistogram(
            "shard.scan_us",
            serving::Histogram::ExponentialBounds(1.0, 2.0, 26),
            replica_labels);
        instruments.health =
            metrics_->GetGauge("shard.replica_health", replica_labels);
        instruments.entities_scanned =
            metrics_->GetCounter("scan.entities_scanned");
        instruments.entities_pruned =
            metrics_->GetCounter("scan.entities_pruned");
        instruments.entities_reranked =
            metrics_->GetCounter("scan.entities_reranked");
      }
      int pin_cpu = -1;
      if (options_.pin_threads) {
        const unsigned cores = std::thread::hardware_concurrency();
        if (cores > 0) {
          pin_cpu = static_cast<int>(
              static_cast<unsigned>(s * options_.replication + r) % cores);
        }
      }
      workers_.push_back(std::make_unique<ShardWorker>(
          model, range, s, r, faults, options_.queue_capacity,
          options_.down_after_failures, instruments, pin_cpu));
    }
  }
  HALK_CHECK_EQ(next, num_entities_);
}

ShardCoordinator::~ShardCoordinator() { Stop(); }

void ShardCoordinator::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& worker : workers_) worker->Stop();
}

ShardWorker* ShardCoordinator::worker(int shard, int replica) const {
  return workers_[static_cast<size_t>(shard * options_.replication + replica)]
      .get();
}

EntityRange ShardCoordinator::shard_range(int shard) const {
  return worker(shard, 0)->range();
}

ReplicaHealth ShardCoordinator::replica_health(int shard, int replica) const {
  return worker(shard, replica)->health();
}

int64_t ShardCoordinator::replica_tasks_served(int shard, int replica) const {
  return worker(shard, replica)->tasks_served();
}

int ShardCoordinator::PickReplica(int shard,
                                  const std::vector<bool>& tried) const {
  int suspect = -1;
  int last_resort = -1;
  for (int r = 0; r < options_.replication; ++r) {
    if (tried[static_cast<size_t>(r)]) continue;
    switch (worker(shard, r)->health()) {
      case ReplicaHealth::kHealthy:
        return r;
      case ReplicaHealth::kSuspect:
        if (suspect < 0) suspect = r;
        break;
      case ReplicaHealth::kDown:
        // Probed only when nothing better remains, so a replica revived
        // behind the coordinator's back can work its way back to healthy.
        if (last_resort < 0) last_resort = r;
        break;
    }
  }
  return suspect >= 0 ? suspect : last_resort;
}

ShardedTopK ShardCoordinator::TopKEmbedded(const BranchSet& branches,
                                           int64_t k,
                                           Clock::time_point deadline,
                                           const obs::TraceContext& trace) {
  const Clock::time_point start = Clock::now();
  if (requests_ != nullptr) requests_->Increment();

  // The scatter span covers dispatch plus the whole hedged gather; every
  // replica_scan, failover, and hedged-wait event nests under it. Merge is
  // a disjoint sibling so per-phase spans tile the request wall-clock.
  obs::SpanGuard scatter(trace, "scatter");
  const obs::TraceContext scatter_ctx = scatter.child_context();

  // Tasks share ownership of the branch set so a replica abandoned at the
  // deadline can finish (or fail) harmlessly after this call returns.
  auto shared = std::make_shared<const BranchSet>(branches);

  const int num_shards = options_.num_shards;
  const int replication = options_.replication;
  struct Attempt {
    std::future<Result<std::vector<core::ScoredEntity>>> future;
    int replica = -1;
  };
  std::vector<Attempt> attempts(static_cast<size_t>(num_shards));
  std::vector<std::vector<bool>> tried(
      static_cast<size_t>(num_shards),
      std::vector<bool>(static_cast<size_t>(replication), false));

  // Scatter to the next live untried replica; false when none remain.
  auto dispatch = [&](int shard) {
    while (true) {
      const int replica = PickReplica(shard, tried[static_cast<size_t>(shard)]);
      if (replica < 0) {
        attempts[static_cast<size_t>(shard)].replica = -1;
        return false;
      }
      tried[static_cast<size_t>(shard)][static_cast<size_t>(replica)] = true;
      auto task = std::make_unique<ShardTask>();
      task->branches = shared;
      task->k = k;
      task->deadline = deadline;
      task->trace = scatter_ctx;
      auto future = task->result.get_future();
      if (!shard_tasks_.empty()) {
        shard_tasks_[static_cast<size_t>(shard)]->Increment();
      }
      const Status submitted = worker(shard, replica)->Submit(std::move(task));
      if (!submitted.ok()) {
        worker(shard, replica)->MarkFailure();
        continue;  // queue full or stopped: treat as a failed call
      }
      attempts[static_cast<size_t>(shard)] = {std::move(future), replica};
      return true;
    }
  };

  for (int s = 0; s < num_shards; ++s) dispatch(s);

  // Replicas of `shard` not yet tried this request — candidates for a
  // failover attempt.
  auto untried_count = [&](int shard) {
    int n = 0;
    for (int r = 0; r < replication; ++r) {
      if (!tried[static_cast<size_t>(shard)][static_cast<size_t>(r)]) ++n;
    }
    return n;
  };

  // Gather with failover: a failed or deadline-missing replica is demoted
  // and the shard retries on the next live replica with the time left. The
  // wait is hedged — while untried replicas remain, an attempt only gets an
  // even split of the remaining budget, so one slow replica cannot consume
  // the whole deadline and leave its failover no time to run.
  std::vector<std::vector<core::ScoredEntity>> partials(
      static_cast<size_t>(num_shards));
  int64_t covered_entities = 0;
  int uncovered_shards = 0;
  for (int s = 0; s < num_shards; ++s) {
    Attempt& attempt = attempts[static_cast<size_t>(s)];
    bool covered = false;
    while (attempt.replica >= 0) {
      bool ready = true;
      if (deadline == kNoDeadline) {
        attempt.future.wait();
      } else {
        Clock::time_point attempt_deadline = deadline;
        const int spares = untried_count(s);
        const Clock::time_point now = Clock::now();
        if (spares > 0 && now < deadline) {
          attempt_deadline = now + (deadline - now) / (spares + 1);
        }
        ready = attempt.future.wait_until(attempt_deadline) ==
                std::future_status::ready;
      }
      if (!ready) {
        if (deadline_misses_ != nullptr) deadline_misses_->Increment();
        obs::RecordEvent(scatter_ctx, "hedged_wait_expired",
                         {{"shard", static_cast<double>(s)},
                          {"replica", static_cast<double>(attempt.replica)}});
        worker(s, attempt.replica)->MarkFailure();
        if (!shard_failovers_.empty()) {
          shard_failovers_[static_cast<size_t>(s)]->Increment();
        }
        obs::RecordEvent(scatter_ctx, "failover",
                         {{"shard", static_cast<double>(s)},
                          {"replica", static_cast<double>(attempt.replica)}});
        if (!dispatch(s)) break;
        continue;
      }
      Result<std::vector<core::ScoredEntity>> result = attempt.future.get();
      if (result.ok()) {
        worker(s, attempt.replica)->MarkSuccess();
        partials[static_cast<size_t>(s)] = std::move(*result);
        covered_entities += shard_range(s).size();
        covered = true;
        break;
      }
      worker(s, attempt.replica)->MarkFailure();
      if (!shard_failovers_.empty()) {
        shard_failovers_[static_cast<size_t>(s)]->Increment();
      }
      obs::RecordEvent(scatter_ctx, "failover",
                       {{"shard", static_cast<double>(s)},
                        {"replica", static_cast<double>(attempt.replica)}});
      if (!dispatch(s)) break;
    }
    if (!covered) ++uncovered_shards;
  }
  if (scatter.active()) {
    scatter.Annotate("shards", static_cast<double>(num_shards));
    scatter.Annotate("uncovered_shards", static_cast<double>(uncovered_shards));
  }
  scatter.End();

  ShardedTopK out;
  {
    obs::SpanGuard merge(trace, "merge");
    out.entries = core::MergeTopK(partials, k);
    if (merge.active()) {
      merge.Annotate("entries", static_cast<double>(out.entries.size()));
    }
  }
  out.coverage = num_entities_ == 0
                     ? 1.0
                     : static_cast<double>(covered_entities) /
                           static_cast<double>(num_entities_);
  if (uncovered_shards == 0) {
    out.status = Status::OK();
  } else if (covered_entities == 0) {
    out.status = Status::Unavailable("no shard replica available");
  } else {
    if (partials_ != nullptr) partials_->Increment();
    out.status = Status::PartialResult(
        std::to_string(uncovered_shards) + " of " +
        std::to_string(num_shards) + " shards unavailable");
  }
  if (gather_us_ != nullptr) {
    // Exemplar: a slow gather bucket in the scrape names this trace.
    gather_us_->Observe(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count(),
        trace.trace_id);
  }
  return out;
}

ShardedTopK ShardCoordinator::TopK(const query::QueryGraph& query, int64_t k,
                                   std::chrono::microseconds timeout) {
  // One single-row EmbedQueries per DNF branch, exactly as
  // Evaluator::ScoreAllEntities does, so healthy-path rankings match the
  // brute-force evaluator bit-for-bit.
  BranchSet branches;
  for (const query::QueryGraph& branch : query::ToDnf(query)) {
    std::vector<const query::QueryGraph*> single = {&branch};
    branches.embeddings.push_back(model_->EmbedQueries(single));
    branches.rows.emplace_back(branches.embeddings.size() - 1, 0);
  }
  const Clock::time_point deadline =
      timeout.count() > 0 ? Clock::now() + timeout : kNoDeadline;
  return TopKEmbedded(branches, k, deadline);
}

}  // namespace halk::shard
