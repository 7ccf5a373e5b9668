// Helpers of the serving benchmark (perfbench/README.md): the percentile
// rule, seeded request generators, benchmark-side spans with self-time
// accounting, the one-thread closed-loop request loop, and the result
// line. Everything here is deterministic for a fixed seed and is covered by
// perfbench_selftest.

#ifndef HALK_PERFBENCH_PERFBENCH_LIB_H_
#define HALK_PERFBENCH_PERFBENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kg/graph.h"
#include "query/dag.h"
#include "query/structures.h"
#include "serving/server.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// --- Percentile rule -------------------------------------------------------

/// A tail percentile is reported only when at least ten samples lie beyond
/// it: with nearest-rank indexing that needs n - ceil(q * n) >= 10.
bool QuantileSupported(size_t n, double q);

/// The highest of {0.999, 0.99, 0.9, 0.5} that `n` samples support, or 0
/// when even the median is unsupported.
double HighestSupportedQuantile(size_t n);

/// A quantile as reported: the value at quantile `q` (nearest rank) of `n`
/// samples. When `q` was not supported, `q` is the highest supported
/// quantile below the requested one (or the median when none is) and
/// `supported` is false, so the caller can say what it actually reports.
struct Percentile {
  double requested_q = 0.0;
  double q = 0.0;
  double value = 0.0;
  size_t n = 0;
  bool supported = false;
};
Percentile ComputePercentile(std::vector<double> samples, double q);

/// Events per second in each of `bins` equal slices of [start_ns, end_ns),
/// reduced to their median: a throughput that one stalled slice cannot
/// drag down. Events outside the interval are ignored.
double MedianSliceRate(const std::vector<int64_t>& event_ns, int64_t start_ns,
                       int64_t end_ns, int bins);

// --- Seeded generators -----------------------------------------------------

/// SplitMix64: a tiny seeded generator whose sequence is fixed by the seed.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(rank i) is proportional to 1 / (i + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// `count` request indices into a pool of `pool` queries, Zipf(s)-popular.
/// Rank r is pool entry r. The sampled pool cycles through its structure
/// mix, so which structures are hot does not depend on the seed; what the
/// queries ask does.
std::vector<size_t> ZipfSequence(size_t pool, double s, size_t count,
                                 uint64_t seed);

/// Query structures by paper name, e.g. "1p,2p,2i,ip,2u,up".
halk::Result<std::vector<halk::query::StructureId>> ParseMix(
    const std::string& csv);

/// `count` pairwise-distinct grounded queries (by canonical fingerprint)
/// sampled from `kg`, cycling through `mix`. Stops early only if the
/// sampler keeps returning duplicates or failures.
std::vector<halk::query::QueryGraph> SampleDistinctQueries(
    const halk::kg::KnowledgeGraph& kg,
    const std::vector<halk::query::StructureId>& mix, size_t count,
    uint64_t seed);

/// Distinct large queries assembled from a shared library of
/// `library_size` 3-hop chains p(p(p(anchor))). Each query combines two or
/// three library chains under one of five templates that together run
/// every operator (projection, intersection, difference, negation, union),
/// so subtrees recur across requests while whole queries never do.
std::vector<halk::query::QueryGraph> MakeSharedSubtreeQueries(
    int64_t num_entities, int64_t num_relations, int library_size,
    size_t count, uint64_t seed);

/// The library chain `i` of MakeSharedSubtreeQueries(…, seed), appended to
/// `g`; returns its top node. Exposed so tests can recognise the chains.
int AddLibraryChain(halk::query::QueryGraph* g, int i, int64_t num_entities,
                    int64_t num_relations, uint64_t seed);

// --- Spans -----------------------------------------------------------------

/// One benchmark-side span. `parent` indexes the recorder's span list
/// (-1 for a root); spans of one request share `request_id`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request_id = -1;
};

/// In-memory span buffer, written out once the benchmark ends. Not
/// thread-safe: each thread records into its own recorder.
class SpanRecorder {
 public:
  int32_t Begin(const std::string& name, int32_t parent, int64_t request_id);
  void End(int32_t id);
  int32_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t request_id);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line: name, start_ns, end_ns, parent, request_id.
  [[nodiscard]] halk::Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Nanoseconds of [start, end) covered by the union of `intervals`, each
/// clipped to [start, end). Intervals may overlap.
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> intervals);

/// Per span: its duration minus the part of its interval that its direct
/// children cover (overlapping children count once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer of a span: its name up to the first '.', e.g. "plan".
std::string LayerOf(const std::string& span_name);

// --- Closed loop -----------------------------------------------------------

using AnswerResult = halk::Result<halk::serving::TopKAnswer>;
using AnswerFuture = std::future<AnswerResult>;

struct LoopStats {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t rejected = 0;  // Submit refused (admission control)
  int64_t expired = 0;   // resolved with kDeadlineExceeded
  int64_t failed = 0;    // any other error, or a partial answer
  int max_outstanding = 0;
  double seconds = 0.0;  // first submit to last completion
};

/// One generator thread keeping at most `window` requests outstanding: the
/// next request is submitted only when one completes. Completion is the
/// moment the loop sees the future ready, so latency is client-side.
class ClosedLoop {
 public:
  /// Submits request `index`; an error result counts as a rejection when it
  /// is kUnavailable and as a failure otherwise.
  using SubmitFn = std::function<halk::Result<AnswerFuture>(int64_t index)>;
  /// Called once per resolved request with its submit/ready timestamps.
  using DoneFn = std::function<void(int64_t index, const AnswerResult& result,
                                    int64_t submit_ns, int64_t ready_ns)>;
  /// Checked before each submit; false stops submitting and drains.
  using KeepGoingFn =
      std::function<bool(int64_t attempted, int64_t completed, double seconds)>;

  explicit ClosedLoop(int window);

  /// Runs requests first_index, first_index + 1, ... until `keep_going`
  /// says stop, then waits for the outstanding ones.
  LoopStats Run(int64_t first_index, const SubmitFn& submit,
                const DoneFn& on_done, const KeepGoingFn& keep_going);

 private:
  int window_;
};

// --- Result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values printed with every digit.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // HALK_PERFBENCH_PERFBENCH_LIB_H_
