// Tests of the benchmark's own helpers (perfbench_lib.h). Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kg/synthetic_stream.h"
#include "perfbench_lib.h"
#include "query/fingerprint.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

using halk::query::QueryGraph;

void TestPercentileRule() {
  EXPECT(QuantileSupported(1000, 0.99));
  EXPECT(!QuantileSupported(999, 0.99));
  EXPECT(QuantileSupported(20, 0.5));
  EXPECT(!QuantileSupported(19, 0.5));
  EXPECT(!QuantileSupported(0, 0.5));
  EXPECT(HighestSupportedQuantile(10000) == 0.999);
  EXPECT(HighestSupportedQuantile(1000) == 0.99);
  EXPECT(HighestSupportedQuantile(100) == 0.9);
  EXPECT(HighestSupportedQuantile(19) == 0.0);

  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Percentile p99 = ComputePercentile(samples, 0.99);
  EXPECT(p99.supported);
  EXPECT(p99.n == 1000);
  EXPECT(p99.q == 0.99);
  EXPECT(p99.value == 990.0);  // exactly ten samples (991..1000) beyond
  const Percentile p50 = ComputePercentile(samples, 0.5);
  EXPECT(p50.value == 500.0);

  samples.resize(500);  // 1000 down to 501
  const Percentile tail = ComputePercentile(samples, 0.99);
  EXPECT(!tail.supported);
  EXPECT(tail.n == 500);
  EXPECT(tail.requested_q == 0.99);
  EXPECT(tail.q == 0.9);          // the highest quantile 500 samples support
  EXPECT(tail.value == 950.0);    // rank 450 of 501..1000

  const Percentile empty = ComputePercentile({}, 0.99);
  EXPECT(!empty.supported && empty.n == 0 && empty.value == 0.0);
}

void TestMedianSliceRate() {
  // 1 s in ten slices; one slice stalls (no events), the rest see 10 each.
  std::vector<int64_t> events;
  for (int slice = 0; slice < 10; ++slice) {
    if (slice == 3) continue;
    for (int i = 0; i < 10; ++i) {
      events.push_back(slice * 100000000LL + i * 1000000LL);
    }
  }
  events.push_back(-5);             // before the interval: ignored
  events.push_back(1000000000LL);   // at the end: ignored
  EXPECT(MedianSliceRate(events, 0, 1000000000LL, 10) == 100.0);
  EXPECT(MedianSliceRate(events, 0, 1000000000LL, 0) == 0.0);
  EXPECT(MedianSliceRate({}, 0, 1000000000LL, 10) == 0.0);
}

void TestZipf() {
  EXPECT(ZipfSequence(1024, 1.0, 5000, 7) == ZipfSequence(1024, 1.0, 5000, 7));
  EXPECT(ZipfSequence(1024, 1.0, 5000, 7) != ZipfSequence(1024, 1.0, 5000, 8));

  const size_t pool = 1024;
  const size_t draws = 200000;
  const std::vector<size_t> seq = ZipfSequence(pool, 1.0, draws, 11);
  std::vector<size_t> freq(pool, 0);
  for (size_t q : seq) {
    EXPECT(q < pool);
    ++freq[q];
  }
  // Rank r is pool entry r: the first entries are the hottest.
  EXPECT(freq[0] > freq[1] && freq[1] > freq[2] && freq[2] > freq[100]);
  std::sort(freq.rbegin(), freq.rend());
  // Zipf(1) over 1024 ranks: the top query takes 1/H(1024) ~ 13.3% of the
  // traffic and the second about half of that.
  const double top = static_cast<double>(freq[0]) / draws;
  EXPECT(top > 0.12 && top < 0.145);
  const double ratio = static_cast<double>(freq[0]) / freq[1];
  EXPECT(ratio > 1.8 && ratio < 2.2);
  // The head is heavy: the 256 most popular queries carry ~82% of requests.
  size_t head = 0;
  for (size_t i = 0; i < 256; ++i) head += freq[i];
  EXPECT(static_cast<double>(head) / draws > 0.78);
}

std::vector<std::string> Render(const std::vector<QueryGraph>& queries) {
  std::vector<std::string> out;
  for (const QueryGraph& q : queries) out.push_back(q.ToString());
  return out;
}

bool AllDistinct(const std::vector<QueryGraph>& queries) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const QueryGraph& q : queries) {
    const halk::query::Fingerprint fp = halk::query::CanonicalFingerprint(q);
    if (!seen.insert({fp.hi, fp.lo}).second) return false;
  }
  return true;
}

void TestSampledQueries() {
  halk::kg::StreamKgOptions world;
  world.num_entities = 2000;
  world.num_relations = 24;
  world.seed = 5;
  const halk::kg::Dataset ds =
      halk::kg::MaterializeStreamDataset(world, 0.05, 0.05);
  auto mix = ParseMix("1p,2p,2i,ip,2u,up");
  EXPECT(mix.ok() && mix->size() == 6);
  EXPECT(!ParseMix("1p,nope").ok());
  const auto a = SampleDistinctQueries(ds.train, *mix, 300, 9);
  const auto b = SampleDistinctQueries(ds.train, *mix, 300, 9);
  const auto c = SampleDistinctQueries(ds.train, *mix, 300, 10);
  EXPECT(a.size() == 300);
  EXPECT(Render(a) == Render(b));
  EXPECT(Render(a) != Render(c));
  EXPECT(AllDistinct(a));
  bool has_union = false;
  for (const QueryGraph& q : a) {
    EXPECT(q.Validate(/*grounded=*/true).ok());
    has_union |= q.HasOp(halk::query::OpType::kUnion);
  }
  EXPECT(has_union);
}

void TestSharedSubtreeQueries() {
  const int64_t n = 1000;
  const int64_t r = 48;
  const int lib = 24;
  const auto a = MakeSharedSubtreeQueries(n, r, lib, 2000, 3);
  EXPECT(a.size() == 2000);
  EXPECT(Render(a) == Render(MakeSharedSubtreeQueries(n, r, lib, 2000, 3)));
  EXPECT(Render(a) != Render(MakeSharedSubtreeQueries(n, r, lib, 2000, 4)));
  EXPECT(AllDistinct(a));

  // Every operator runs.
  using halk::query::OpType;
  for (OpType op : {OpType::kProjection, OpType::kIntersection,
                    OpType::kDifference, OpType::kNegation, OpType::kUnion}) {
    bool seen = false;
    for (const QueryGraph& q : a) seen |= q.HasOp(op);
    EXPECT(seen);
  }

  // Subtree reuse: every query contains at least two library chains, and
  // the whole stream draws on no more than `lib` distinct chains.
  std::set<std::pair<uint64_t, uint64_t>> library;
  for (int i = 0; i < lib; ++i) {
    QueryGraph g;
    g.SetTarget(AddLibraryChain(&g, i, n, r, 3));
    const auto fps = halk::query::SubtreeFingerprints(g);
    library.insert({fps[g.target()].hi, fps[g.target()].lo});
  }
  std::set<std::pair<uint64_t, uint64_t>> used;
  for (const QueryGraph& q : a) {
    EXPECT(q.Validate(/*grounded=*/true).ok());
    int chains = 0;
    for (const auto& fp : halk::query::SubtreeFingerprints(q)) {
      if (library.count({fp.hi, fp.lo}) != 0) {
        ++chains;
        used.insert({fp.hi, fp.lo});
      }
    }
    EXPECT(chains >= 2);
  }
  EXPECT(used.size() <= static_cast<size_t>(lib));
  EXPECT(used.size() >= static_cast<size_t>(lib) - 2);
}

void TestSelfTimes() {
  EXPECT(CoveredNs(0, 100, {}) == 0);
  EXPECT(CoveredNs(0, 100, {{10, 20}, {30, 40}}) == 20);
  EXPECT(CoveredNs(0, 100, {{10, 50}, {30, 70}}) == 60);    // overlapping
  EXPECT(CoveredNs(0, 100, {{10, 80}, {20, 30}}) == 70);    // contained
  EXPECT(CoveredNs(0, 100, {{-20, 10}, {90, 130}}) == 20);  // clipped

  // Nested: root [0,100) > child [10,40) > grandchild [20,30).
  std::vector<Span> nested = {
      {"replay.chunk", 0, 100, -1, 1},
      {"plan.build", 10, 40, 0, 1},
      {"core.rank_full", 20, 30, 1, 1},
  };
  std::vector<int64_t> self = SelfTimes(nested);
  EXPECT(self == std::vector<int64_t>({70, 20, 10}));

  // Overlapping siblings count once in the parent; a grandchild only
  // reduces its own parent's self time.
  std::vector<Span> overlap = {
      {"replay.chunk", 0, 100, -1, 1},
      {"shard.gather", 10, 50, 0, 1},
      {"core.rank_bounded", 30, 70, 0, 2},
      {"core.rank_full", 35, 45, 2, 2},
  };
  self = SelfTimes(overlap);
  EXPECT(self == std::vector<int64_t>({40, 40, 30, 10}));

  EXPECT(LayerOf("plan.build") == "plan");
  EXPECT(LayerOf("replay") == "replay");

  SpanRecorder rec;
  const int32_t root = rec.Begin("replay.chunk", -1, 3);
  const int32_t child = rec.Begin("query.dnf", root, 3);
  rec.End(child);
  rec.End(root);
  EXPECT(rec.spans().size() == 2);
  EXPECT(rec.spans()[1].parent == root);
  EXPECT(rec.spans()[0].start_ns <= rec.spans()[1].start_ns);
  EXPECT(rec.spans()[1].end_ns <= rec.spans()[0].end_ns);
}

/// A stand-in server: requests complete on a background thread after a
/// short delay, every fifth Submit is refused.
class FakeServer {
 public:
  FakeServer() : thread_([this] { Loop(); }) {}
  ~FakeServer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  halk::Result<AnswerFuture> Submit(int64_t index) {
    if (index % 5 == 4) return halk::Status::Unavailable("queue full");
    std::promise<AnswerResult> promise;
    AnswerFuture future = promise.get_future();
    const int now = ++outstanding_;
    max_outstanding_ = std::max(max_outstanding_.load(), now);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(promise));
    }
    cv_.notify_all();
    return future;
  }
  int max_outstanding() const { return max_outstanding_.load(); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      std::promise<AnswerResult> p = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      --outstanding_;
      p.set_value(halk::serving::TopKAnswer{});
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::promise<AnswerResult>> queue_;
  bool stop_ = false;
  std::atomic<int> outstanding_{0};
  std::atomic<int> max_outstanding_{0};
  std::thread thread_;
};

void TestClosedLoopWindow() {
  for (int window : {1, 4, 32}) {
    FakeServer server;
    int64_t done = 0;
    int64_t last_index = -1;
    bool ordered_ready = true;
    ClosedLoop loop(window);
    const LoopStats stats = loop.Run(
        100, [&](int64_t i) { return server.Submit(i); },
        [&](int64_t i, const AnswerResult&, int64_t submit_ns,
            int64_t ready_ns) {
          ++done;
          last_index = std::max(last_index, i);
          ordered_ready &= ready_ns >= submit_ns;
        },
        [&](int64_t attempted, int64_t, double) { return attempted < 500; });
    EXPECT(stats.attempted == 500);
    EXPECT(done == 500);
    EXPECT(last_index == 599);
    EXPECT(ordered_ready);
    EXPECT(stats.rejected == 100);
    EXPECT(stats.succeeded == 400);
    EXPECT(stats.failed == 0 && stats.expired == 0);
    EXPECT(stats.max_outstanding <= window);
    EXPECT(server.max_outstanding() <= window);
    EXPECT(stats.max_outstanding == window);  // the window was used fully
  }
}

void TestResultJson() {
  const std::string line =
      ResultJson(true, 12, 0, {{"latency_p50_ms", 1.25, "ms"},
                               {"setup_s", 0.1, "s"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
         "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileRule();
  TestMedianSliceRate();
  TestZipf();
  TestSampledQueries();
  TestSharedSubtreeQueries();
  TestSelfTimes();
  TestClosedLoopWindow();
  TestResultJson();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all tests passed\n");
  return 0;
}
