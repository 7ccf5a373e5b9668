#include "perfbench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "query/fingerprint.h"
#include "query/sampler.h"

namespace perfbench {

using halk::query::QueryGraph;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentile rule -------------------------------------------------------

namespace {

/// Zero-based nearest-rank index of quantile q among n sorted samples.
size_t NearestRankIndex(size_t n, double q) {
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

bool QuantileSupported(size_t n, double q) {
  if (n == 0) return false;
  return n - (NearestRankIndex(n, q) + 1) >= 10;
}

double HighestSupportedQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (QuantileSupported(n, q)) return q;
  }
  return 0.0;
}

Percentile ComputePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.requested_q = q;
  p.n = samples.size();
  p.supported = QuantileSupported(p.n, q);
  p.q = q;
  if (!p.supported) {
    const double best = HighestSupportedQuantile(p.n);
    p.q = best > 0.0 && best < q ? best : std::min(q, 0.5);
  }
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.value = samples[NearestRankIndex(samples.size(), p.q)];
  return p;
}

double MedianSliceRate(const std::vector<int64_t>& event_ns, int64_t start_ns,
                       int64_t end_ns, int bins) {
  if (bins <= 0 || end_ns <= start_ns) return 0.0;
  const double width = static_cast<double>(end_ns - start_ns) / bins;
  std::vector<double> counts(static_cast<size_t>(bins), 0.0);
  for (int64_t t : event_ns) {
    if (t < start_ns || t >= end_ns) continue;
    const auto b =
        static_cast<size_t>(static_cast<double>(t - start_ns) / width);
    counts[std::min(b, counts.size() - 1)] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  const size_t mid = counts.size() / 2;
  const double median = counts.size() % 2 == 1
                            ? counts[mid]
                            : 0.5 * (counts[mid - 1] + counts[mid]);
  return median / (width / 1e9);
}

// --- Seeded generators -----------------------------------------------------

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) { return Next() % n; }

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(SplitMix64* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<size_t> ZipfSequence(size_t pool, double s, size_t count,
                                 uint64_t seed) {
  SplitMix64 rng(seed);
  const ZipfSampler zipf(pool, s);
  std::vector<size_t> sequence(count);
  for (size_t& q : sequence) q = zipf.Sample(&rng);
  return sequence;
}

halk::Result<std::vector<halk::query::StructureId>> ParseMix(
    const std::string& csv) {
  std::vector<halk::query::StructureId> mix;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = std::min(csv.find(',', start), csv.size());
    auto id = halk::query::StructureFromName(csv.substr(start, comma - start));
    if (!id.ok()) return id.status();
    mix.push_back(*id);
    start = comma + 1;
  }
  return mix;
}

std::vector<QueryGraph> SampleDistinctQueries(
    const halk::kg::KnowledgeGraph& kg,
    const std::vector<halk::query::StructureId>& mix, size_t count,
    uint64_t seed) {
  halk::query::QuerySampler sampler(&kg, seed);
  std::unordered_set<halk::query::Fingerprint, halk::query::FingerprintHash>
      seen;
  std::vector<QueryGraph> queries;
  queries.reserve(count);
  for (size_t draw = 0; queries.size() < count && draw < 4 * count + 64;
       ++draw) {
    auto sampled = sampler.Sample(mix[draw % mix.size()]);
    if (!sampled.ok()) continue;
    if (!seen.insert(halk::query::CanonicalFingerprint(sampled->graph))
             .second) {
      continue;
    }
    queries.push_back(std::move(sampled->graph));
  }
  return queries;
}

int AddLibraryChain(QueryGraph* g, int i, int64_t num_entities,
                    int64_t num_relations, uint64_t seed) {
  SplitMix64 rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(i));
  const auto n = static_cast<uint64_t>(num_entities);
  const auto r = static_cast<uint64_t>(num_relations);
  int node = g->AddAnchor(static_cast<int64_t>(rng.Below(n)));
  for (int hop = 0; hop < 3; ++hop) {
    node = g->AddProjection(node, static_cast<int64_t>(rng.Below(r)));
  }
  return node;
}

std::vector<QueryGraph> MakeSharedSubtreeQueries(int64_t num_entities,
                                                 int64_t num_relations,
                                                 int library_size,
                                                 size_t count,
                                                 uint64_t seed) {
  SplitMix64 rng(seed ^ 0x5bd1e995ULL);
  const auto lib = static_cast<uint64_t>(library_size);
  std::unordered_set<halk::query::Fingerprint, halk::query::FingerprintHash>
      seen;
  std::vector<QueryGraph> queries;
  queries.reserve(count);
  for (size_t draw = 0; queries.size() < count && draw < 4 * count + 64;
       ++draw) {
    // Three distinct library chains and one tail relation.
    const int a = static_cast<int>(rng.Below(lib));
    int b = static_cast<int>(rng.Below(lib - 1));
    if (b >= a) ++b;
    int c = static_cast<int>(rng.Below(lib));
    while (c == a || c == b) c = static_cast<int>((c + 1) % library_size);
    const int64_t tail =
        static_cast<int64_t>(rng.Below(static_cast<uint64_t>(num_relations)));
    const int shape = static_cast<int>(rng.Below(5));

    QueryGraph g;
    const int A = AddLibraryChain(&g, a, num_entities, num_relations, seed);
    const int B = AddLibraryChain(&g, b, num_entities, num_relations, seed);
    int target = -1;
    switch (shape) {
      case 0: {  // p(i(A, B, C), r)
        const int C = AddLibraryChain(&g, c, num_entities, num_relations, seed);
        target = g.AddProjection(g.AddIntersection({A, B, C}), tail);
        break;
      }
      case 1: {  // d(i(A, B), C)
        const int C = AddLibraryChain(&g, c, num_entities, num_relations, seed);
        target = g.AddDifference({g.AddIntersection({A, B}), C});
        break;
      }
      case 2:  // p(i(A, n(B)), r)
        target = g.AddProjection(g.AddIntersection({A, g.AddNegation(B)}),
                                 tail);
        break;
      case 3: {  // u(i(A, B), p(C, r)): two DNF branches
        const int C = AddLibraryChain(&g, c, num_entities, num_relations, seed);
        target = g.AddUnion(
            {g.AddIntersection({A, B}), g.AddProjection(C, tail)});
        break;
      }
      default: {  // i(p(d(A, B), r), C)
        const int C = AddLibraryChain(&g, c, num_entities, num_relations, seed);
        target = g.AddIntersection(
            {g.AddProjection(g.AddDifference({A, B}), tail), C});
        break;
      }
    }
    g.SetTarget(target);
    if (!seen.insert(halk::query::CanonicalFingerprint(g)).second) continue;
    queries.push_back(std::move(g));
  }
  return queries;
}

// --- Spans -----------------------------------------------------------------

int32_t SpanRecorder::Begin(const std::string& name, int32_t parent,
                            int64_t request_id) {
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request_id);
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t SpanRecorder::Add(const std::string& name, int64_t start_ns,
                          int64_t end_ns, int32_t parent,
                          int64_t request_id) {
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

halk::Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return halk::Status::IOError("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << "}\n";
  }
  out.flush();
  if (!out) return halk::Status::IOError("short write to " + path);
  return halk::Status::OK();
}

int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, start);
    iv.second = std::min(iv.second, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = start;  // everything before `reach` is already counted
  for (const auto& [lo, hi] : intervals) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return covered;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              CoveredNs(s.start_ns, s.end_ns, std::move(children[i]));
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// --- Closed loop -----------------------------------------------------------

ClosedLoop::ClosedLoop(int window) : window_(std::max(1, window)) {}

LoopStats ClosedLoop::Run(int64_t first_index, const SubmitFn& submit,
                          const DoneFn& on_done,
                          const KeepGoingFn& keep_going) {
  struct Pending {
    int64_t index;
    int64_t submit_ns;
    AnswerFuture future;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(window_));
  LoopStats stats;
  const int64_t start_ns = NowNs();
  int64_t last_ns = start_ns;
  int64_t next = first_index;
  int64_t completed = 0;
  bool stopping = false;

  auto resolve = [&](int64_t index, int64_t submit_ns,
                     const AnswerResult& result, int64_t ready_ns) {
    if (result.ok()) {
      if (result->completeness.ok()) {
        ++stats.succeeded;
      } else {
        ++stats.failed;
      }
    } else if (result.status().code() ==
               halk::StatusCode::kDeadlineExceeded) {
      ++stats.expired;
    } else {
      ++stats.failed;
    }
    ++completed;
    last_ns = ready_ns;
    on_done(index, result, submit_ns, ready_ns);
  };

  while (true) {
    while (!stopping && static_cast<int>(pending.size()) < window_) {
      if (!keep_going(stats.attempted, completed,
                      static_cast<double>(NowNs() - start_ns) / 1e9)) {
        stopping = true;
        break;
      }
      const int64_t index = next++;
      ++stats.attempted;
      const int64_t submit_ns = NowNs();
      halk::Result<AnswerFuture> submitted = submit(index);
      if (!submitted.ok()) {
        if (submitted.status().code() == halk::StatusCode::kUnavailable) {
          ++stats.rejected;
        } else {
          ++stats.failed;
        }
        ++completed;
        last_ns = NowNs();
        on_done(index, AnswerResult(submitted.status()), submit_ns, last_ns);
        continue;
      }
      pending.push_back({index, submit_ns, std::move(*submitted)});
      stats.max_outstanding =
          std::max(stats.max_outstanding, static_cast<int>(pending.size()));
      // Answers resolved inside Submit (answer-cache hits) are ready now;
      // take them before submitting more so their latency is their own.
      if (pending.back().future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const int64_t ready_ns = NowNs();
        const AnswerResult result = pending.back().future.get();
        pending.pop_back();
        resolve(index, submit_ns, result, ready_ns);
      }
    }
    if (pending.empty()) break;

    bool any_ready = false;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const int64_t ready_ns = NowNs();
        const AnswerResult result = pending[i].future.get();
        resolve(pending[i].index, pending[i].submit_ns, result, ready_ns);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        any_ready = true;
      } else {
        ++i;
      }
    }
    // Nothing ready: block briefly on the oldest request (it usually
    // finishes first) instead of spinning on the whole window.
    if (!any_ready) {
      pending.front().future.wait_for(std::chrono::microseconds(20));
    }
  }
  stats.seconds = static_cast<double>(last_ns - start_ns) / 1e9;
  return stats;
}

// --- Result line -----------------------------------------------------------

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
