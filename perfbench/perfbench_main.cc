// The serving benchmark (perfbench/README.md). One process runs one
// workload through serving::QueryServer from a single closed-loop generator
// thread and prints one result line.
//
//   halk_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR --param key=value ...
//
// The workload's configuration arrives as --param pairs (perfbench/run.py
// reads them from perfbench/workloads.json). With --trace 0 the run measures
// the end-to-end metrics with tracing off; with --trace 1 it measures the
// tracing overhead and replays the same seeded requests through each
// layer's public functions under benchmark-side spans.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/synthetic_stream.h"
#include "net/http_server.h"
#include "net/telemetry.h"
#include "obs/process_metrics.h"
#include "perfbench_lib.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "query/dnf.h"
#include "query/fingerprint.h"
#include "serving/lru_cache.h"
#include "serving/server.h"
#include "shard/coordinator.h"
#include "store/convert.h"
#include "store/store.h"
#include "store/writer.h"

namespace perfbench {
namespace {

using halk::query::QueryGraph;

/// Fails the run: message on stderr, no result line, exit code 2.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "halk_perfbench: %s\n", message.c_str());
  std::exit(2);
}

// --- Configuration ----------------------------------------------------------

// Settings every workload shares (README.md, "Workloads").
constexpr size_t kMaxBatch = 16;
constexpr int64_t kTopK = 10;
constexpr int64_t kRelations = 48;
constexpr size_t kSubtreeCacheBytes = size_t{8} << 20;
/// The measured phase completes at least this many requests, so that a p99
/// has ten samples beyond it.
constexpr int64_t kMinCompleted = 1000;
/// An untraced run sets up this many times; setup_s is the median.
constexpr int kSetups = 3;
/// Nice value added to the server's threads (workers, shards, HTTP). The
/// generator stands in for clients on other machines: it must not wait
/// behind the server's own threads for a CPU.
constexpr int kServerNice = 5;

/// The --param pairs of one workload. Every pair must be read: a key that
/// no setting consumes is an error, so a typo cannot pass silently.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --param " + key);
    used_.insert(key);
    return it->second;
  }
  int64_t Int(const std::string& key) const {
    const std::string v = Str(key);
    char* end = nullptr;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') Die("bad integer " + key + "=" + v);
    return x;
  }
  int64_t Int(const std::string& key, int64_t fallback) const {
    return Has(key) ? Int(key) : fallback;
  }
  double Real(const std::string& key) const {
    const std::string v = Str(key);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') Die("bad number " + key + "=" + v);
    return x;
  }
  void CheckAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) Die("unused --param " + key + "=" + value);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;

  std::string generator;  // sampled | shared_subtree | zipf
  int64_t entities = 0;
  int64_t slice_entities = 0;  // entities of the materialised KG slice
  int64_t dim = 0;
  int64_t hidden = 0;
  int shards = 0;
  int64_t store_files = 0;  // > 0: serve from a store snapshot
  uint64_t residency_window_bytes = 0;
  int window = 0;
  int workers = 0;
  size_t cache_capacity = 0;
  size_t pool = 0;
  std::string mix;     // sampled, zipf
  int library = 0;     // shared_subtree
  double zipf_s = 0.0;  // zipf
  size_t requests = 0;  // zipf: length of the request sequence
  int64_t scrape_interval_ms = 0;
  int64_t warmup = 0;
  size_t check_samples = 0;

  bool store() const { return store_files > 0; }
};

Config ParseArgs(int argc, char** argv) {
  Config c;
  Params p;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      c.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = c.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      c.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      c.work_dir = value;
    } else if (flag == "--param") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) Die("--param wants key=value: " + value);
      p.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      c.work_dir.empty()) {
    Die("usage: --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --param key=value...");
  }
  c.generator = p.Str("generator");
  if (c.generator == "sampled" || c.generator == "zipf") {
    c.mix = p.Str("mix");
  } else if (c.generator == "shared_subtree") {
    c.library = static_cast<int>(p.Int("library"));
  } else {
    Die("unknown generator " + c.generator);
  }
  if (c.generator == "zipf") {
    c.zipf_s = p.Real("zipf_s");
    c.requests = static_cast<size_t>(p.Int("requests"));
  }
  c.entities = p.Int("entities");
  c.slice_entities = std::min(c.entities, p.Int("slice_entities", c.entities));
  c.dim = p.Int("dim");
  c.hidden = p.Int("hidden");
  if (p.Has("shards") && p.Str("shards") == "nproc") {
    c.shards = static_cast<int>(
        std::max(1u, std::min(8u, std::thread::hardware_concurrency())));
  } else {
    c.shards = static_cast<int>(p.Int("shards", 0));
  }
  c.store_files = p.Int("store_files", 0);
  if (c.store()) {
    c.residency_window_bytes =
        static_cast<uint64_t>(p.Int("residency_window_bytes", 0));
  }
  c.window = static_cast<int>(p.Int("window"));
  c.workers = static_cast<int>(p.Int("workers"));
  c.cache_capacity = static_cast<size_t>(p.Int("cache_capacity"));
  c.pool = static_cast<size_t>(p.Int("pool"));
  c.scrape_interval_ms = p.Int("scrape_interval_ms", 0);
  c.warmup = p.Int("warmup");
  c.check_samples = static_cast<size_t>(p.Int("check_samples"));
  p.CheckAllUsed();
  if (c.entities <= 0 || c.dim <= 0 || c.window <= 0 || c.workers <= 0 ||
      c.pool == 0 ||
      (c.generator == "zipf" && c.requests == 0)) {
    Die("workload parameters out of range");
  }
  if (c.store() && c.shards <= 0) Die("the store workload needs shards");
  return c;
}

// --- Set-up -----------------------------------------------------------------

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Runs `fn` on a short-lived thread whose nice value is kServerNice higher;
/// every thread that `fn` starts inherits it.
template <typename Fn>
void RunAsServer(Fn fn) {
  std::thread t([&] {
    const auto tid = static_cast<id_t>(::syscall(SYS_gettid));
    ::setpriority(PRIO_PROCESS, tid,
                  ::getpriority(PRIO_PROCESS, tid) + kServerNice);
    fn();
  });
  t.join();
}

/// The largest VmRSS seen while alive, sampled every 50 ms on its own
/// thread so that the generator thread never waits on /proc.
class PeakRssSampler {
 public:
  PeakRssSampler() {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      do {
        peak_bytes_ = std::max(peak_bytes_,
                               halk::obs::ReadProcessSelfStats().rss_bytes);
      } while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                             [this] { return stop_; }));
    });
  }
  ~PeakRssSampler() { Stop(); }
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  /// Stops sampling; returns the peak in MiB.
  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_bytes_) / (1024.0 * 1024.0);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t peak_bytes_ = 0;
  std::thread thread_;
};

/// Everything one workload serves from. Member order is destruction order
/// in reverse: the server goes first, then the store-backed model, then the
/// store it reads.
struct Setup {
  halk::kg::Dataset dataset;
  std::unique_ptr<halk::core::HalkModel> model;  // in-RAM table
  std::unique_ptr<halk::store::EmbeddingStore> store;
  std::unique_ptr<halk::core::HalkModel> store_model;
  halk::core::HalkModel* serving_model = nullptr;
  std::vector<QueryGraph> pool;
  std::vector<size_t> sequence;  // request index -> pool index
  std::unique_ptr<halk::serving::QueryServer> server;
  double write_s = 0.0;
  double open_s = 0.0;
  double seconds = 0.0;

  const QueryGraph& Request(int64_t i) const {
    return pool[sequence[static_cast<size_t>(i) % sequence.size()]];
  }
};

/// Drives requests 0 .. count-1 through the closed loop, ignoring the
/// answers (warm-up).
LoopStats Drive(Setup* s, const Config& c, int64_t count) {
  ClosedLoop loop(c.window);
  return loop.Run(
      0,
      [&](int64_t i) { return s->server->Submit(s->Request(i), kTopK); },
      [](int64_t, const AnswerResult&, int64_t, int64_t) {},
      [&](int64_t attempted, int64_t, double) { return attempted < count; });
}

std::unique_ptr<Setup> BuildSetup(const Config& c,
                                  const std::string& snap_dir) {
  const int64_t start = NowNs();
  auto s = std::make_unique<Setup>();
  halk::kg::StreamKgOptions world;
  world.num_entities = c.slice_entities;
  world.num_relations = kRelations;
  world.seed = c.seed;
  s->dataset = halk::kg::MaterializeStreamDataset(world, 0.05, 0.05);

  if (c.generator == "sampled" || c.generator == "zipf") {
    auto mix = ParseMix(c.mix);
    if (!mix.ok()) Die("bad mix: " + mix.status().ToString());
    s->pool = SampleDistinctQueries(s->dataset.train, *mix, c.pool, c.seed);
  } else if (c.generator == "shared_subtree") {
    s->pool = MakeSharedSubtreeQueries(c.entities, kRelations, c.library,
                                       c.pool, c.seed);
  }
  if (s->pool.size() < c.pool) {
    Die("generated only " + std::to_string(s->pool.size()) + " of " +
        std::to_string(c.pool) + " distinct queries");
  }
  if (c.generator == "zipf") {
    s->sequence = ZipfSequence(s->pool.size(), c.zipf_s, c.requests,
                               c.seed ^ 0x21f0aaadULL);
  } else {
    s->sequence.resize(s->pool.size());
    for (size_t i = 0; i < s->sequence.size(); ++i) s->sequence[i] = i;
  }

  halk::core::ModelConfig mc;
  mc.num_entities = c.entities;
  mc.num_relations = kRelations;
  mc.dim = c.dim;
  mc.hidden = c.hidden;
  mc.seed = c.seed + 3;
  s->model = std::make_unique<halk::core::HalkModel>(mc, nullptr);
  s->serving_model = s->model.get();

  if (c.store()) {
    std::filesystem::remove_all(snap_dir);
    const int64_t write_start = NowNs();
    const halk::Status written =
        halk::store::WriteModelSnapshot(*s->model, snap_dir, c.store_files);
    if (!written.ok()) Die("snapshot write: " + written.ToString());
    s->write_s = SecondsSince(write_start);
    s->model.reset();  // serve from the snapshot only, as --store does
    const int64_t open_start = NowNs();
    halk::store::EmbeddingStore::OpenOptions open_options;
    open_options.residency_window_bytes = c.residency_window_bytes;
    auto opened = halk::store::EmbeddingStore::Open(snap_dir, open_options);
    if (!opened.ok()) Die("store open: " + opened.status().ToString());
    s->store = std::move(*opened);
    auto served = halk::store::OpenServingModel(*s->store, nullptr);
    if (!served.ok()) Die("store model: " + served.status().ToString());
    s->store_model = std::move(*served);
    s->serving_model = s->store_model.get();
    s->open_s = SecondsSince(open_start);
  }

  halk::serving::ServerOptions so;
  so.num_workers = c.workers;
  so.max_batch_size = kMaxBatch;
  so.cache_capacity = c.cache_capacity;
  so.enable_cache = c.cache_capacity > 0;
  so.num_shards = c.shards;
  so.subtree_cache_bytes = kSubtreeCacheBytes;
  RunAsServer([&] {
    s->server = std::make_unique<halk::serving::QueryServer>(
        s->serving_model, &s->dataset.train, so);
  });

  const LoopStats warm = Drive(s.get(), c, c.warmup);
  if (warm.succeeded != warm.attempted) Die("warm-up requests failed");
  s->seconds = SecondsSince(start);
  return s;
}

// --- Correctness gate -------------------------------------------------------

struct Sampled {
  int64_t index = 0;
  bool from_cache = false;
  std::vector<int64_t> entities;
  std::vector<float> distances;
};

/// Seeded reservoir over a run's successful answers.
class AnswerSample {
 public:
  AnswerSample(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}
  void Offer(int64_t index, const halk::serving::TopKAnswer& answer) {
    ++seen_;
    size_t slot = kept_.size();
    if (kept_.size() >= capacity_) {
      slot = static_cast<size_t>(rng_.Below(seen_));
      if (slot >= capacity_) return;
    }
    Sampled s{index, answer.from_cache, answer.entities, answer.distances};
    if (slot == kept_.size()) {
      kept_.push_back(std::move(s));
    } else {
      kept_[slot] = std::move(s);
    }
  }
  const std::vector<Sampled>& kept() const { return kept_; }

 private:
  size_t capacity_;
  SplitMix64 rng_;
  uint64_t seen_ = 0;
  std::vector<Sampled> kept_;
};

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Checks each sampled answer against Evaluator::TopK on the serving model
/// (ids) and Evaluator::ScoreAllEntities (their distances); returns the
/// number of mismatches.
int64_t CheckAnswers(Setup* s, const std::vector<Sampled>& samples,
                     int64_t* hits) {
  halk::core::Evaluator evaluator(s->serving_model);
  int64_t mismatches = 0;
  for (const Sampled& got : samples) {
    const QueryGraph& q = s->Request(got.index);
    const std::vector<int64_t> ids = evaluator.TopK(q, kTopK);
    const std::vector<float> all = evaluator.ScoreAllEntities(q);
    std::vector<float> distances;
    for (int64_t id : ids) distances.push_back(all[static_cast<size_t>(id)]);
    if (got.entities != ids || !BitEqual(got.distances, distances)) {
      ++mismatches;
      std::fprintf(stderr, "answer mismatch at request %lld (%s)\n",
                   static_cast<long long>(got.index), q.ToString().c_str());
    }
    if (got.from_cache) ++*hits;
  }
  return mismatches;
}

// --- /metrics scraper -------------------------------------------------------

/// Blocking loopback GET; true on an HTTP 200 with a body.
bool HttpGetOk(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  bool ok = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: localhost\r\n"
                                "Connection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      std::string response;
      char buf[8192];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
      ok = response.rfind("HTTP/1.1 200", 0) == 0 &&
           response.find("serving_submitted") != std::string::npos;
    }
  }
  ::close(fd);
  return ok;
}

/// Scrapes GET /metrics at a fixed interval on its own thread while alive.
class Scraper {
 public:
  Scraper(halk::serving::MetricsRegistry* registry, int64_t interval_ms) {
    if (interval_ms <= 0) return;
    halk::net::TelemetrySources sources;
    sources.metrics = registry;
    halk::net::RegisterTelemetryEndpoints(&http_, sources);
    halk::Status started;
    RunAsServer([&] { started = http_.Start(); });
    if (!started.ok()) Die("telemetry server: " + started.ToString());
    thread_ = std::thread([this, interval_ms] { Loop(interval_ms); });
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    http_.Stop();
  }
  /// Scrape durations in ms; read after Stop.
  const std::vector<double>& durations_ms() const { return durations_ms_; }
  int64_t failures() const { return failures_; }

 private:
  void Loop(int64_t interval_ms) {
    const auto interval = std::chrono::milliseconds(interval_ms);
    auto due = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      const int64_t t0 = NowNs();
      if (HttpGetOk(http_.port(), "/metrics")) {
        durations_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      } else {
        ++failures_;
      }
      due += interval;
      const auto now = std::chrono::steady_clock::now();
      if (due < now) due = now;  // fell behind: skip, never burst
      std::this_thread::sleep_until(due);
    }
  }

  halk::net::HttpServer http_;
  std::atomic<bool> stop_{false};
  std::vector<double> durations_ms_;
  int64_t failures_ = 0;
  std::thread thread_;
};

// --- Measured closed loop ---------------------------------------------------

struct Measured {
  LoopStats stats;
  std::vector<double> latency_ms;
  std::vector<int64_t> done_ns;  // completion times of successes
  int64_t start_ns = 0;
  double qps = 0.0;  // median over ten equal slices of the phase
};

/// The measured closed loop from request `first`. With `spans`, each request
/// records a serving.request span (Submit to ready) with a serving.submit
/// child around the Submit call.
Measured RunMeasured(Setup* s, const Config& c, int64_t first,
                     double min_seconds, int64_t min_completed,
                     AnswerSample* sample, SpanRecorder* spans) {
  Measured m;
  const double cap_seconds = 4.0 * min_seconds + 10.0;
  ClosedLoop loop(c.window);
  std::map<int64_t, std::pair<int64_t, int64_t>> submit_spans;
  m.start_ns = NowNs();
  m.stats = loop.Run(
      first,
      [&](int64_t i) {
        if (spans == nullptr) return s->server->Submit(s->Request(i), kTopK);
        const int64_t t0 = NowNs();
        auto r = s->server->Submit(s->Request(i), kTopK);
        submit_spans[i] = {t0, NowNs()};
        return r;
      },
      [&](int64_t i, const AnswerResult& result, int64_t submit_ns,
          int64_t ready_ns) {
        if (spans != nullptr) {
          const int32_t root =
              spans->Add("serving.request", submit_ns, ready_ns, -1, i);
          const auto it = submit_spans.find(i);
          if (it != submit_spans.end()) {
            spans->Add("serving.submit", it->second.first, it->second.second,
                       root, i);
            submit_spans.erase(it);
          }
        }
        if (!result.ok() || !result->completeness.ok()) return;
        m.latency_ms.push_back(static_cast<double>(ready_ns - submit_ns) /
                               1e6);
        m.done_ns.push_back(ready_ns);
        sample->Offer(i, *result);
      },
      [&](int64_t, int64_t completed, double seconds) {
        if (seconds >= cap_seconds) return false;
        return seconds < min_seconds || completed < min_completed;
      });
  m.qps = MedianSliceRate(
      m.done_ns, m.start_ns,
      m.start_ns + static_cast<int64_t>(m.stats.seconds * 1e9) + 1, 10);
  return m;
}

void PrintPercentile(const char* name, const Percentile& p) {
  std::printf("  %-28s %.4f (p%g of n=%zu%s)\n", name, p.value,
              p.q * 100.0, p.n,
              p.supported ? "" : "; requested percentile unsupported");
}

// --- Replay (trace 1) -------------------------------------------------------

/// Per-layer counts gathered by the replay.
struct ReplayCounts {
  int64_t requests = 0;
  int64_t cache_hits = 0;
  int64_t dnf_requests = 0;
  int64_t branches = 0;
  int64_t planned_requests = 0;
  int64_t plan_total_nodes = 0;
  int64_t plan_unique_nodes = 0;
  int64_t subtree_hits = 0;
  int64_t subtree_misses = 0;
  int64_t node_evals = 0;
  int64_t full_scan_entity_dims = 0;
  int64_t full_scan_ns = 0;
  halk::core::ScanStats scan;
  int64_t mismatches = 0;
};

struct CachedTop {
  std::vector<int64_t> entities;
  std::vector<float> distances;
};

void Unzip(const std::vector<halk::core::ScoredEntity>& top, CachedTop* out) {
  out->entities.clear();
  out->distances.clear();
  for (const halk::core::ScoredEntity& e : top) {
    out->entities.push_back(e.entity);
    out->distances.push_back(e.distance);
  }
}

/// Replays requests 0, 1, ... in chunks of min(window, max_batch_size)
/// through the layers' public functions on the path the server takes:
/// answer-cache lookup, DNF expansion, one shared plan per chunk, then the
/// server's ranking — the full scan (DistancesToAll + TopKFromDistances)
/// unsharded, the scatter-gather (TopKEmbedded) sharded. Every chunk is one
/// replay.chunk root span, and only these trees enter the layer shares.
///
/// Kernels the server does not run on this path are timed after the chunk,
/// under one replay.offpath root per request: the bound-aware scan
/// (AccumulateTopKRange over [0, N)) and, when sharded, the full scan. They
/// run on one planned request in 8 * ceil(N / 16384); their answers must
/// equal the served one.
///
/// The replay lasts `budget_s`; sharded, it goes on until it holds
/// kMinGathers gathers (enough for a p99), for at most ten budgets. When
/// fewer than `min_plan_chunks` chunks were planned, plan-only chunks
/// (replay.plan_chunk roots) top up the plan samples.
constexpr int64_t kMinGathers = 1000;

/// One planned request's ranking inputs, kept for the off-path kernels.
struct OffPath {
  int64_t request = 0;
  halk::core::EmbeddingBatch embedding;
  std::vector<int64_t> rows;
  CachedTop served;
};

void Replay(Setup* s, const Config& c, double budget_s, int64_t min_plan_chunks,
            SpanRecorder* spans, ReplayCounts* counts) {
  halk::core::HalkModel* model = s->serving_model;
  const int64_t n = model->config().num_entities;
  const halk::kg::KnowledgeGraph& kg = s->dataset.train;
  const halk::plan::Planner planner(kg.finalized() ? &kg.stats() : nullptr, n);
  halk::serving::SubtreeCache subtree_cache(kSubtreeCacheBytes);
  const halk::plan::PlanExecutor executor(model, model->AsOperatorModel(),
                                          &subtree_cache);
  halk::serving::LruCache<halk::query::Fingerprint, CachedTop,
                          halk::query::FingerprintHash>
      answers(c.cache_capacity);
  std::unique_ptr<halk::shard::ShardCoordinator> coordinator;
  if (c.shards > 0) {
    halk::shard::ShardOptions so;
    so.num_shards = c.shards;
    coordinator = std::make_unique<halk::shard::ShardCoordinator>(model, so);
  }
  const size_t chunk = std::min(static_cast<size_t>(c.window), kMaxBatch);
  const int64_t offpath_every = 8 * ((n + 16383) / 16384);

  // The full scan of one request: DistancesToAll per branch, their
  // elementwise minimum, then TopKFromDistances.
  auto rank_full = [&](const halk::core::EmbeddingBatch& embedding,
                       const std::vector<int64_t>& rows, int32_t parent,
                       int64_t i) {
    const int64_t t0 = NowNs();
    const int32_t span = spans->Begin("core.rank_full", parent, i);
    std::vector<float> best;
    std::vector<float> dist;
    for (int64_t row : rows) {
      model->DistancesToAll(embedding, row, &dist);
      if (best.empty()) {
        best = dist;
      } else {
        for (size_t e = 0; e < dist.size(); ++e) {
          best[e] = std::min(best[e], dist[e]);
        }
      }
    }
    CachedTop top;
    Unzip(halk::core::TopKFromDistances(best, kTopK), &top);
    spans->End(span);
    counts->full_scan_ns += NowNs() - t0;
    counts->full_scan_entity_dims +=
        static_cast<int64_t>(rows.size()) * n * c.dim;
    return top;
  };
  auto same = [](const CachedTop& a, const CachedTop& b) {
    return a.entities == b.entities && BitEqual(a.distances, b.distances);
  };

  int64_t next = 0;
  int64_t plan_chunks = 0;
  int64_t gathers = 0;
  auto plan_chunk = [&](int32_t root, const std::vector<int64_t>& ids,
                        const std::vector<std::vector<QueryGraph>>& branches,
                        std::vector<halk::plan::PlanItem>* items,
                        halk::plan::ExecStats* stats) {
    items->clear();
    for (size_t r = 0; r < branches.size(); ++r) {
      for (const QueryGraph& b : branches[r]) items->push_back({r, &b});
    }
    int32_t span = spans->Begin("plan.build", root, ids.front());
    const halk::plan::Plan plan = planner.BuildPlan(*items);
    spans->End(span);
    span = spans->Begin("plan.run", root, ids.front());
    halk::plan::ExecSchedule schedule = executor.Prepare(plan);
    halk::core::EmbeddingBatch embedding = executor.Run(plan, &schedule);
    spans->End(span);
    ++plan_chunks;
    counts->plan_total_nodes += plan.total_nodes;
    counts->plan_unique_nodes += static_cast<int64_t>(plan.nodes.size());
    *stats = schedule.stats;
    return std::make_pair(embedding, plan.roots);
  };
  auto keep_going = [&](double elapsed) {
    if (next >= static_cast<int64_t>(s->sequence.size())) return false;
    if (next == 0 || elapsed < budget_s) return true;
    return coordinator != nullptr && gathers < kMinGathers &&
           elapsed < 10.0 * budget_s;
  };

  const int64_t start = NowNs();
  std::vector<halk::plan::PlanItem> items;
  std::vector<OffPath> offpath;
  while (keep_going(SecondsSince(start))) {
    const int64_t first = next;
    const int32_t root = spans->Begin("replay.chunk", -1, first);
    std::vector<int64_t> misses;
    std::vector<halk::query::Fingerprint> keys;
    for (size_t j = 0; j < chunk; ++j) {
      const int64_t i = next++;
      ++counts->requests;
      int32_t span = spans->Begin("query.fingerprint", root, i);
      const halk::query::Fingerprint key =
          halk::query::CanonicalFingerprint(s->Request(i));
      spans->End(span);
      if (c.cache_capacity > 0) {
        span = spans->Begin("serving.cache_lookup", root, i);
        const bool hit = answers.Get(key, nullptr);
        spans->End(span);
        if (hit) {
          ++counts->cache_hits;
          continue;
        }
      }
      misses.push_back(i);
      keys.push_back(key);
    }
    offpath.clear();
    if (!misses.empty()) {
      std::vector<std::vector<QueryGraph>> branches(misses.size());
      for (size_t r = 0; r < misses.size(); ++r) {
        const int32_t span = spans->Begin("query.dnf", root, misses[r]);
        branches[r] = halk::query::ToDnf(s->Request(misses[r]));
        spans->End(span);
        ++counts->dnf_requests;
        counts->branches += static_cast<int64_t>(branches[r].size());
      }
      halk::plan::ExecStats stats;
      const auto [embedding, roots] =
          plan_chunk(root, misses, branches, &items, &stats);
      counts->planned_requests += static_cast<int64_t>(misses.size());
      counts->subtree_hits += stats.cache_hits;
      counts->subtree_misses += stats.cache_misses;
      counts->node_evals += stats.evaluated;

      for (size_t r = 0; r < misses.size(); ++r) {
        const int64_t i = misses[r];
        std::vector<int64_t> rows;
        for (size_t j = 0; j < roots.size(); ++j) {
          if (roots[j].request_index == r) {
            rows.push_back(static_cast<int64_t>(j));
          }
        }
        CachedTop served;
        if (coordinator != nullptr) {
          halk::shard::BranchSet set;
          set.embeddings.push_back(embedding);
          for (int64_t row : rows) set.rows.emplace_back(0, row);
          const int32_t span = spans->Begin("shard.gather", root, i);
          const halk::shard::ShardedTopK top =
              coordinator->TopKEmbedded(set, kTopK);
          spans->End(span);
          ++gathers;
          if (!top.ok()) ++counts->mismatches;
          Unzip(top.entries, &served);
        } else {
          served = rank_full(embedding, rows, root, i);
        }
        if (i % offpath_every == 0) {
          offpath.push_back({i, embedding, rows, served});
        }
        if (c.cache_capacity > 0) answers.Put(keys[r], std::move(served));
      }
    }
    spans->End(root);

    for (const OffPath& o : offpath) {
      const int32_t off = spans->Begin("replay.offpath", -1, o.request);
      if (coordinator != nullptr &&
          !same(rank_full(o.embedding, o.rows, off, o.request), o.served)) {
        ++counts->mismatches;
      }
      std::vector<halk::core::BranchRef> refs;
      for (int64_t row : o.rows) refs.push_back({&o.embedding, row});
      halk::core::TopKAccumulator acc(kTopK);
      const int32_t span = spans->Begin("core.rank_bounded", off, o.request);
      model->AccumulateTopKRange(refs, 0, n, &acc, &counts->scan);
      CachedTop bounded;
      Unzip(acc.Take(), &bounded);
      spans->End(span);
      spans->End(off);
      if (!same(bounded, o.served)) ++counts->mismatches;
    }
  }

  // Plan-only top-up so the plan percentiles rest on enough chunks.
  const int64_t topup_end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  while (plan_chunks < min_plan_chunks && NowNs() < topup_end &&
         next < static_cast<int64_t>(s->sequence.size())) {
    const int32_t root = spans->Begin("replay.plan_chunk", -1, next);
    std::vector<int64_t> ids;
    std::vector<std::vector<QueryGraph>> branches;
    for (size_t j = 0; j < chunk; ++j, ++next) {
      ids.push_back(next);
      branches.push_back(halk::query::ToDnf(s->Request(next)));
    }
    halk::plan::ExecStats stats;
    (void)plan_chunk(root, ids, branches, &items, &stats);
    spans->End(root);
  }
}

/// Collects span durations (in `scale` units per ns) by name.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name, double per_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * per_ns);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Summed bucket counts and total sum of every labeled child of one
/// histogram family, each child addressed by its labels.
struct HistogramSnapshot {
  std::vector<int64_t> counts;
  double sum = 0.0;
  int64_t count = 0;
};

HistogramSnapshot Snap(halk::serving::MetricsRegistry* m,
                       const std::string& name,
                       const std::vector<double>& bounds,
                       const halk::serving::Labels& labels = {}) {
  halk::serving::Histogram* h = m->GetHistogram(name, bounds, labels);
  return {h->BucketCounts(), h->sum(), h->count()};
}

// --- Main -------------------------------------------------------------------

int RunTrace0(const Config& c, const std::string& snap_dir) {
  // Set up kSetups times, keep the last: setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    s = BuildSetup(c, snap_dir);
    setups.push_back(s->seconds);
  }
  std::sort(setups.begin(), setups.end());

  AnswerSample sample(c.check_samples, c.seed ^ 0xc0ffeeULL);
  Scraper scraper(s->server->metrics(), c.scrape_interval_ms);
  PeakRssSampler rss;
  const Measured m = RunMeasured(s.get(), c, c.warmup, c.seconds,
                                 kMinCompleted, &sample, nullptr);
  const double peak_rss_mib = rss.Stop();
  scraper.Stop();

  int64_t sampled_hits = 0;
  const int64_t mismatches =
      CheckAnswers(s.get(), sample.kept(), &sampled_hits);
  const Percentile p50 = ComputePercentile(m.latency_ms, 0.5);
  const Percentile p99 = ComputePercentile(m.latency_ms, 0.99);
  const int64_t failed =
      m.stats.rejected + m.stats.expired + m.stats.failed + mismatches;
  const bool correct =
      mismatches == 0 && failed == 0 && scraper.failures() == 0;

  std::printf("workload %s seed %llu: %lld entities, dim %lld, %d shards, "
              "window %d\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              static_cast<long long>(c.entities),
              static_cast<long long>(c.dim), c.shards, c.window);
  std::printf("  requests: attempted %lld succeeded %lld rejected %lld "
              "expired %lld failed %lld (max outstanding %d)\n",
              static_cast<long long>(m.stats.attempted),
              static_cast<long long>(m.stats.succeeded),
              static_cast<long long>(m.stats.rejected),
              static_cast<long long>(m.stats.expired),
              static_cast<long long>(m.stats.failed), m.stats.max_outstanding);
  std::printf("  correctness: %zu sampled answers (%lld answer-cache hits), "
              "%lld mismatches\n",
              sample.kept().size(), static_cast<long long>(sampled_hits),
              static_cast<long long>(mismatches));
  if (c.scrape_interval_ms > 0) {
    std::printf("  scrapes: %zu ok, %lld failed\n",
                scraper.durations_ms().size(),
                static_cast<long long>(scraper.failures()));
  }
  std::printf("  throughput_qps %.3f over %.3f s\n", m.qps, m.stats.seconds);
  PrintPercentile("latency_p50_ms", p50);
  PrintPercentile("latency_p99_ms", p99);
  std::printf("  setup_s %.4f (median of", setups[kSetups / 2]);
  for (double v : setups) std::printf(" %.4f", v);
  std::printf(")\n");

  const std::vector<Metric> metrics = {
      {"throughput_qps", m.qps, "1/s"},
      {"latency_p50_ms", p50.value, "ms"},
      {"latency_p99_ms", p99.value, "ms"},
      {"setup_s", setups[kSetups / 2], "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  std::printf("%s\n",
              ResultJson(correct, m.stats.attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunTrace1(const Config& c, const std::string& snap_dir,
              const std::string& spans_path) {
  std::unique_ptr<Setup> s = BuildSetup(c, snap_dir);
  halk::serving::MetricsRegistry* reg = s->server->metrics();
  const std::vector<double> us_bounds =
      halk::serving::Histogram::ExponentialBounds(1.0, 2.0, 26);
  const std::vector<double> batch_bounds =
      halk::serving::Histogram::ExponentialBounds(1.0, 2.0, 12);

  auto counter = [&](const std::string& name) {
    return reg->CounterValue(name);
  };
  const int64_t hits0 = counter("serving.cache_hits");
  const int64_t misses0 = counter("serving.cache_misses");
  const int64_t rejected0 = counter("serving.rejected");
  const int64_t expired0 = counter("serving.deadline_expired");
  const HistogramSnapshot batch0 =
      Snap(reg, "serving.batch_size", batch_bounds);
  std::vector<HistogramSnapshot> scan0;
  int64_t failovers0 = 0;
  for (int sh = 0; sh < c.shards; ++sh) {
    const std::string id = std::to_string(sh);
    scan0.push_back(Snap(reg, "shard.scan_us", us_bounds,
                         {{"shard", id}, {"replica", "0"}}));
    failovers0 += reg->CounterValue("shard.failovers", {{"shard", id}});
  }

  // Untraced and traced closed-loop phases alternate on the same server;
  // the tracing overhead is the throughput ratio of the two sides.
  AnswerSample sample(c.check_samples, c.seed ^ 0xc0ffeeULL);
  SpanRecorder spans;
  Scraper scraper(reg, c.scrape_interval_ms);
  const double phase_s = 0.15 * c.seconds;
  LoopStats untraced;
  LoopStats traced;
  int64_t next = c.warmup;
  for (int round = 0; round < 4; ++round) {
    const bool tracing = round % 2 == 1;
    const Measured m = RunMeasured(s.get(), c, next, phase_s, 0, &sample,
                                   tracing ? &spans : nullptr);
    next += m.stats.attempted;
    LoopStats& side = tracing ? traced : untraced;
    side.attempted += m.stats.attempted;
    side.succeeded += m.stats.succeeded;
    side.rejected += m.stats.rejected;
    side.expired += m.stats.expired;
    side.failed += m.stats.failed;
    side.seconds += m.stats.seconds;
  }
  scraper.Stop();
  const double untraced_qps =
      Ratio(static_cast<double>(untraced.succeeded), untraced.seconds);
  const double traced_qps =
      Ratio(static_cast<double>(traced.succeeded), traced.seconds);
  // Residency as serving left it, before the replay's and the oracle's full
  // scans fault the whole table in.
  const double resident_mib =
      s->store != nullptr
          ? static_cast<double>(s->store->ResidentBytes()) / (1024.0 * 1024.0)
          : 0.0;

  const int64_t cache_hits = counter("serving.cache_hits") - hits0;
  const int64_t cache_misses = counter("serving.cache_misses") - misses0;
  const int64_t rejected = counter("serving.rejected") - rejected0;
  const int64_t expired = counter("serving.deadline_expired") - expired0;
  const HistogramSnapshot batch1 =
      Snap(reg, "serving.batch_size", batch_bounds);
  std::vector<int64_t> scan_counts(us_bounds.size() + 1, 0);
  std::vector<double> shard_means;
  int64_t failovers = -failovers0;
  for (int sh = 0; sh < c.shards; ++sh) {
    const std::string id = std::to_string(sh);
    const HistogramSnapshot now = Snap(reg, "shard.scan_us", us_bounds,
                                       {{"shard", id}, {"replica", "0"}});
    const HistogramSnapshot& before = scan0[static_cast<size_t>(sh)];
    for (size_t b = 0; b < scan_counts.size(); ++b) {
      scan_counts[b] += now.counts[b] - before.counts[b];
    }
    shard_means.push_back(Ratio(now.sum - before.sum,
                                static_cast<double>(now.count - before.count)));
    failovers += reg->CounterValue("shard.failovers", {{"shard", id}});
  }
  double shard_skew = 0.0;
  if (!shard_means.empty()) {
    double total = 0.0;
    for (double v : shard_means) total += v;
    shard_skew =
        Ratio(*std::max_element(shard_means.begin(), shard_means.end()),
              total / static_cast<double>(shard_means.size()));
  }
  const double shard_scan_ms_p50 =
      c.shards > 0 ? halk::serving::Histogram::QuantileFromCounts(
                         us_bounds, scan_counts, 0.5) /
                         1e3
                   : 0.0;

  // Replay the same seeded requests through each layer.
  ReplayCounts counts;
  Replay(s.get(), c, 0.4 * c.seconds, /*min_plan_chunks=*/1000, &spans,
         &counts);

  int64_t sampled_hits = 0;
  const int64_t mismatches =
      CheckAnswers(s.get(), sample.kept(), &sampled_hits) +
      counts.mismatches;

  // Self time per layer over the replay.chunk trees.
  const std::vector<Span>& all = spans.spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::vector<int32_t> root_of(all.size(), -1);
  int64_t root_total = 0;
  int64_t root_self = 0;
  std::map<std::string, int64_t> layer_self;
  for (size_t i = 0; i < all.size(); ++i) {
    const int32_t parent = all[i].parent;
    root_of[i] = parent < 0 ? static_cast<int32_t>(i)
                            : root_of[static_cast<size_t>(parent)];
    if (all[static_cast<size_t>(root_of[i])].name != "replay.chunk") continue;
    if (parent < 0) {
      root_total += all[i].end_ns - all[i].start_ns;
      root_self += self[i];
    } else {
      layer_self[LayerOf(all[i].name)] += self[i];
    }
  }
  std::string dominant = "none";
  int64_t dominant_ns = -1;
  for (const auto& [layer, ns] : layer_self) {
    if (ns > dominant_ns) {
      dominant = layer;
      dominant_ns = ns;
    }
  }

  const halk::Status written = spans.WriteJsonl(spans_path);
  if (!written.ok()) Die(written.ToString());

  const double us = 1e-3;
  const double ms = 1e-6;
  const Percentile submit_p50 =
      ComputePercentile(Durations(all, "serving.submit", us), 0.5);
  const Percentile dnf_p50 =
      ComputePercentile(Durations(all, "query.dnf", us), 0.5);
  const Percentile fp_p50 =
      ComputePercentile(Durations(all, "query.fingerprint", us), 0.5);
  const Percentile build_p50 =
      ComputePercentile(Durations(all, "plan.build", us), 0.5);
  const Percentile build_p99 =
      ComputePercentile(Durations(all, "plan.build", us), 0.99);
  const Percentile run_p50 =
      ComputePercentile(Durations(all, "plan.run", us), 0.5);
  const Percentile run_p99 =
      ComputePercentile(Durations(all, "plan.run", us), 0.99);
  const Percentile full_p50 =
      ComputePercentile(Durations(all, "core.rank_full", ms), 0.5);
  const Percentile bounded_p50 =
      ComputePercentile(Durations(all, "core.rank_bounded", ms), 0.5);
  const Percentile gather_p50 =
      ComputePercentile(Durations(all, "shard.gather", ms), 0.5);
  const Percentile gather_p99 =
      ComputePercentile(Durations(all, "shard.gather", ms), 0.99);
  const Percentile scrape_p50 = ComputePercentile(scraper.durations_ms(), 0.5);
  const Percentile scrape_p99 = ComputePercentile(scraper.durations_ms(), 0.99);

  const int64_t blocks =
      counts.scan.column_blocks_scanned + counts.scan.column_blocks_skipped;
  const double root_share = Ratio(static_cast<double>(root_self),
                                  static_cast<double>(root_total));
  auto share = [&](const std::string& layer) {
    const auto it = layer_self.find(layer);
    return it == layer_self.end()
               ? 0.0
               : Ratio(static_cast<double>(it->second),
                       static_cast<double>(root_total));
  };

  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.rejected + untraced.expired +
                         untraced.failed + traced.rejected + traced.expired +
                         traced.failed + mismatches;
  const bool correct =
      mismatches == 0 && failed == 0 && scraper.failures() == 0;

  std::printf("workload %s seed %llu (traced run)\n", c.workload.c_str(),
              static_cast<unsigned long long>(c.seed));
  std::printf("  untraced %.3f qps, traced %.3f qps\n", untraced_qps,
              traced_qps);
  std::printf("  replay: %lld requests (%lld answer-cache hits), "
              "%zu replay.chunk roots, spans in %s\n",
              static_cast<long long>(counts.requests),
              static_cast<long long>(counts.cache_hits),
              Durations(all, "replay.chunk", 1.0).size(), spans_path.c_str());
  std::printf("  correctness: %zu sampled answers (%lld answer-cache hits), "
              "%lld mismatches\n",
              sample.kept().size(), static_cast<long long>(sampled_hits),
              static_cast<long long>(mismatches));
  std::printf("  dominant layer (replay self time): %s\n", dominant.c_str());
  for (const auto& [layer, ns] : layer_self) {
    std::printf("    %-8s self %.1f%%\n", layer.c_str(),
                100.0 * Ratio(static_cast<double>(ns),
                              static_cast<double>(root_total)));
  }
  std::printf("    %-8s self %.1f%%\n", "(none)", 100.0 * root_share);
  PrintPercentile("serving.submit_us_p50", submit_p50);
  PrintPercentile("plan.build_us_p99", build_p99);
  PrintPercentile("plan.run_us_p99", run_p99);
  PrintPercentile("shard.gather_ms_p99", gather_p99);
  PrintPercentile("net.scrape_ms_p99", scrape_p99);

  const std::vector<Metric> metrics = {
      {"serving.submit_us_p50", submit_p50.value, "us"},
      {"serving.cache_hit_ratio",
       Ratio(static_cast<double>(cache_hits),
             static_cast<double>(cache_hits + cache_misses)),
       "ratio"},
      {"serving.batch_size_mean",
       Ratio(batch1.sum - batch0.sum,
             static_cast<double>(batch1.count - batch0.count)),
       "count"},
      {"serving.rejected", static_cast<double>(rejected), "count"},
      {"serving.deadline_expired", static_cast<double>(expired), "count"},
      {"query.dnf_us_p50", dnf_p50.value, "us"},
      {"query.branches_per_request",
       Ratio(static_cast<double>(counts.branches),
             static_cast<double>(counts.dnf_requests)),
       "count"},
      {"query.fingerprint_us_p50", fp_p50.value, "us"},
      {"plan.build_us_p50", build_p50.value, "us"},
      {"plan.build_us_p99", build_p99.value, "us"},
      {"plan.run_us_p50", run_p50.value, "us"},
      {"plan.run_us_p99", run_p99.value, "us"},
      {"plan.dedup_ratio",
       1.0 - Ratio(static_cast<double>(counts.plan_unique_nodes),
                   static_cast<double>(counts.plan_total_nodes)),
       "ratio"},
      {"plan.subtree_hit_ratio",
       Ratio(static_cast<double>(counts.subtree_hits),
             static_cast<double>(counts.subtree_hits + counts.subtree_misses)),
       "ratio"},
      {"plan.node_evals_per_request",
       Ratio(static_cast<double>(counts.node_evals),
             static_cast<double>(counts.planned_requests)),
       "count"},
      {"core.rank_full_ms_p50", full_p50.value, "ms"},
      {"core.rank_bounded_ms_p50", bounded_p50.value, "ms"},
      {"core.scan_ns_per_entity_dim",
       Ratio(static_cast<double>(counts.full_scan_ns),
             static_cast<double>(counts.full_scan_entity_dims)),
       "ns"},
      {"core.pruned_ratio",
       Ratio(static_cast<double>(counts.scan.entities_pruned),
             static_cast<double>(counts.scan.entities_scanned)),
       "ratio"},
      {"shard.gather_ms_p50", gather_p50.value, "ms"},
      {"shard.gather_ms_p99", gather_p99.value, "ms"},
      {"shard.scan_ms_p50", shard_scan_ms_p50, "ms"},
      {"shard.skew", shard_skew, "ratio"},
      {"shard.failovers", static_cast<double>(failovers), "count"},
      {"store.write_s", s->write_s, "s"},
      {"store.open_s", s->open_s, "s"},
      {"store.blocks_skipped_ratio",
       Ratio(static_cast<double>(counts.scan.column_blocks_skipped),
             static_cast<double>(blocks)),
       "ratio"},
      {"store.resident_mib", resident_mib, "MiB"},
      {"net.scrape_ms_p50", scrape_p50.value, "ms"},
      {"net.scrape_ms_p99", scrape_p99.value, "ms"},
      {"trace.overhead_ratio", Ratio(traced_qps, untraced_qps), "ratio"},
      {"trace.unattributed_share", root_share, "ratio"},
      {"trace.self_share.serving", share("serving"), "ratio"},
      {"trace.self_share.query", share("query"), "ratio"},
      {"trace.self_share.plan", share("plan"), "ratio"},
      {"trace.self_share.core", share("core"), "ratio"},
      {"trace.self_share.shard", share("shard"), "ratio"},
  };
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Config c = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(c.work_dir, ec);
  if (ec) Die("cannot create " + c.work_dir + ": " + ec.message());
  const std::string tag = c.workload + "-seed" + std::to_string(c.seed);
  const std::string snap_dir =
      c.work_dir + "/" + tag + "-" + std::to_string(::getpid()) + ".snapshot";
  const int rc = c.trace ? RunTrace1(c, snap_dir,
                                     c.work_dir + "/" + tag + ".spans.jsonl")
                         : RunTrace0(c, snap_dir);
  std::filesystem::remove_all(snap_dir, ec);
  return rc;
}
