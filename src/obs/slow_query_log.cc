#include "obs/slow_query_log.h"

#include <algorithm>
#include <utility>

namespace halk::obs {

SlowQueryLog::SlowQueryLog(size_t capacity, int64_t threshold_ns)
    : threshold_ns_(threshold_ns), entries_(std::max<size_t>(capacity, 1)) {}

int64_t SlowQueryLog::threshold_ns() const {
  MutexLock lock(mu_);
  return threshold_ns_;
}

void SlowQueryLog::set_threshold_ns(int64_t threshold_ns) {
  MutexLock lock(mu_);
  threshold_ns_ = threshold_ns;
}

bool SlowQueryLog::Offer(const std::string& fingerprint, Trace trace,
                         int64_t plan_nodes, double dedup_ratio) {
  const int64_t duration = trace.duration_ns();
  const int64_t threshold = threshold_ns();
  if (threshold <= 0 || duration < threshold) return false;
  // A fresh entry starts zeroed, so the same fold creates and refreshes.
  entries_.Update(fingerprint, [&](Entry& entry) {
    entry.trace_id = trace.id();
    entry.trace = std::move(trace);
    entry.worst_ns = std::max(entry.worst_ns, duration);
    entry.hits += 1;
    entry.plan_nodes = plan_nodes;
    entry.dedup_ratio = dedup_ratio;
  });
  return true;
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Entries() const {
  std::vector<std::pair<std::string, Entry>> snapshot = entries_.Snapshot();
  std::vector<Entry> out;
  out.reserve(snapshot.size());
  for (auto& [fingerprint, entry] : snapshot) {
    entry.fingerprint = std::move(fingerprint);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace halk::obs
