#include "obs/query_stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/journal.h"

namespace halk::obs {

namespace {

// Weight of the newest sample in the feedback EWMA: heavy enough to track
// KG updates within a few observations, light enough that one noisy probe
// cannot flip a schedule ordering for long.
constexpr double kFeedbackAlpha = 0.25;

static_assert(static_cast<size_t>(query::OpType::kNegation) + 1 ==
                  kNumOpKinds,
              "kNumOpKinds must cover every query::OpType");

}  // namespace

QueryStatsStore::QueryStatsStore(size_t capacity, size_t feedback_capacity,
                                 int64_t feedback_min_samples)
    : feedback_min_samples_(std::max<int64_t>(feedback_min_samples, 1)),
      stats_(std::max<size_t>(capacity, 1)),
      feedback_(std::max<size_t>(feedback_capacity, 1)) {}

void QueryStatsStore::Record(const std::string& fingerprint,
                             const QueryObservation& observation) {
  stats_.Update(fingerprint, [&observation](Stats& s) {
    s.hits += 1;
    if (observation.cache_hit) s.cache_hits += 1;
    s.latency_us.Add(observation.latency_us);
    if (!observation.structure.empty()) s.structure = observation.structure;
    if (observation.plan_nodes > 0) {
      s.plan_nodes = observation.plan_nodes;
      s.dedup_ratio = observation.dedup_ratio;
    }
    if (observation.worst_qerror > 0.0) {
      s.qerror.Add(observation.worst_qerror);
      s.worst_qerror = std::max(s.worst_qerror, observation.worst_qerror);
    }
    for (size_t op = 0; op < kNumOpKinds; ++op) {
      s.op_ns[op] += observation.op_ns[op];
    }
  });
}

void QueryStatsStore::RecordSubtreeRows(const query::Fingerprint& key,
                                        double actual_rows) {
  if (actual_rows < 0.0 || !std::isfinite(actual_rows)) return;
  feedback_.Update(key, [actual_rows](Feedback& entry) {
    entry.rows = entry.samples == 0
                     ? actual_rows
                     : (1.0 - kFeedbackAlpha) * entry.rows +
                           kFeedbackAlpha * actual_rows;
    entry.samples += 1;
  });
}

bool QueryStatsStore::ObservedRows(const query::Fingerprint& key,
                                   double* rows) const {
  Feedback entry;
  if (!feedback_.Peek(key, &entry) ||
      entry.samples < feedback_min_samples_) {
    return false;
  }
  *rows = entry.rows;
  return true;
}

bool QueryStatsStore::Lookup(const std::string& fingerprint,
                             Stats* out) const {
  if (!stats_.Peek(fingerprint, out)) return false;
  out->fingerprint = fingerprint;
  return true;
}

std::vector<QueryStatsStore::Stats> QueryStatsStore::TopByTime(
    size_t n) const {
  std::vector<std::pair<std::string, Stats>> snapshot = stats_.Snapshot();
  std::vector<Stats> all;
  all.reserve(snapshot.size());
  for (auto& [fingerprint, stats] : snapshot) {
    stats.fingerprint = std::move(fingerprint);
    all.push_back(std::move(stats));
  }
  std::sort(all.begin(), all.end(), [](const Stats& a, const Stats& b) {
    const int64_t ta = a.total_op_ns();
    const int64_t tb = b.total_op_ns();
    if (ta != tb) return ta > tb;
    if (a.hits != b.hits) return a.hits > b.hits;
    if (a.latency_us.mean != b.latency_us.mean) {
      return a.latency_us.mean > b.latency_us.mean;
    }
    return a.fingerprint < b.fingerprint;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::string QueryStatsStore::ToJson(size_t top_n) const {
  const std::vector<Stats> top = TopByTime(top_n);
  std::string out = "{\"queries\":[";
  for (size_t i = 0; i < top.size(); ++i) {
    const Stats& s = top[i];
    JsonLineBuilder line;
    line.Str("fingerprint", s.fingerprint)
        .Str("structure", s.structure)
        .Int("hits", s.hits)
        .Int("cache_hits", s.cache_hits)
        .Num("latency_us_mean", s.latency_us.mean)
        .Num("latency_us_stddev", std::sqrt(s.latency_us.Variance()))
        .Int("qerror_samples", s.qerror.count)
        .Num("qerror_mean", s.qerror.mean)
        .Num("qerror_worst", s.worst_qerror)
        .Int("plan_nodes", s.plan_nodes)
        .Num("dedup_ratio", s.dedup_ratio)
        .Num("node_us_total", static_cast<double>(s.total_op_ns()) / 1e3);
    for (size_t op = 0; op < kNumOpKinds; ++op) {
      line.Num(std::string("us_") +
                   query::OpTypeName(static_cast<query::OpType>(op)),
               static_cast<double>(s.op_ns[op]) / 1e3);
    }
    if (i > 0) out += ",";
    out += line.Finish();
  }
  out += "]}";
  return out;
}

void QueryStatsStore::Clear() {
  stats_.Clear();
  feedback_.Clear();
}

}  // namespace halk::obs
