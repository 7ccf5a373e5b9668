#ifndef HALK_OBS_JOURNAL_H_
#define HALK_OBS_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"  // Fnv1a64: journals key runs by options hash
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace halk::obs {

/// One scalar value of a flat JSON object (journal lines and BENCH_*.json
/// are flat by construction; nested containers are rejected by the
/// parser).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;

  static JsonValue Null() { return JsonValue{}; }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind = Kind::kBool;
    v.bool_value = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind = Kind::kNumber;
    v.number = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind = Kind::kString;
    v.string_value = std::move(s);
    return v;
  }

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
};

/// A parsed flat JSON object, in key order of appearance.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// First value with the given key, or nullptr.
const JsonValue* FindKey(const JsonObject& object, const std::string& key);

/// Parses one journal/bench line: a flat JSON object whose values are
/// strings, numbers, booleans, or null. Nested objects/arrays, duplicate
/// trailing garbage, and malformed escapes are kParseError — never a
/// crash (the fuzz suite drives this on adversarial bytes).
[[nodiscard]] Result<JsonObject> ParseJsonLine(const std::string& line);

/// Incremental builder for one flat JSON line. Keys are emitted in
/// insertion order; values are rendered immediately (strings escaped,
/// doubles via %.17g so round-trips are exact, non-finite numbers as
/// null per JSON).
class JsonLineBuilder {
 public:
  JsonLineBuilder& Str(const std::string& key, const std::string& value);
  JsonLineBuilder& Num(const std::string& key, double value);
  JsonLineBuilder& Int(const std::string& key, int64_t value);
  JsonLineBuilder& Bool(const std::string& key, bool value);
  JsonLineBuilder& Null(const std::string& key);

  bool empty() const { return fields_.empty(); }
  /// The rendered object, e.g. `{"a":1,"b":"x"}`.
  std::string Finish() const;

 private:
  JsonLineBuilder& Raw(const std::string& key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Append-only JSONL training journal: one flat JSON object per line,
/// flushed per record so a crashed run keeps every completed step. Record
/// kinds are distinguished by the "record" key — "header" (seed, options
/// fingerprint, model, hyperparameters), "step" (loss, norms, tape op
/// totals, wall time), "eval" (held-out MRR / Hits@3) — see
/// docs/observability.md for the full schema table.
class TrainJournal {
 public:
  /// Opens (truncating) `path` for writing. kIOError if unwritable.
  [[nodiscard]] static Result<std::unique_ptr<TrainJournal>> Open(
      const std::string& path);
  /// Journal writing into a caller-owned stream (tests, stdout).
  static std::unique_ptr<TrainJournal> ToStream(std::ostream* out);

  /// Writes one record (appends the newline, flushes).
  void Write(const JsonLineBuilder& record) HALK_EXCLUDES(mu_);

  int64_t records_written() const HALK_EXCLUDES(mu_);
  const std::string& path() const { return path_; }

  /// Use Open / ToStream; public only for std::make_unique.
  TrainJournal(std::unique_ptr<std::ofstream> file, std::ostream* out,
               std::string path);

 private:
  const std::string path_;
  mutable Mutex mu_;
  std::unique_ptr<std::ofstream> file_ HALK_GUARDED_BY(mu_);
  std::ostream* out_ HALK_GUARDED_BY(mu_);  // file_.get() or caller-owned
  int64_t records_ HALK_GUARDED_BY(mu_) = 0;
};

/// Append-only JSONL serving request journal: one flat JSON object per
/// finished request, flushed per record (same persistence discipline as
/// TrainJournal), for offline latency/SLO analysis and joining with slow
/// traces. Fields: fingerprint (canonical query fingerprint, hex), status
/// (Status code name, "OK" on success), latency_us, k, coverage,
/// cache_hit, trace_id (hex, "0" when tracing was off), plan_nodes,
/// dedup_ratio (plan shape; 0 off the planner path) — see
/// docs/observability.md.
class ServeJournal {
 public:
  /// Opens (truncating) `path` for writing. kIOError if unwritable.
  [[nodiscard]] static Result<std::unique_ptr<ServeJournal>> Open(
      const std::string& path);
  /// Journal writing into a caller-owned stream (tests, stdout).
  static std::unique_ptr<ServeJournal> ToStream(std::ostream* out);

  /// One finished request. Off the submit hot path only in the sense that
  /// it runs at request completion; the write itself is a mutex-serialized
  /// flushed append, so only enable the journal when auditing.
  /// `plan_nodes` / `dedup_ratio` describe the plan that served the
  /// request (0 off the planner path) — the join columns shared with the
  /// query-stats store behind /queryz and with SlowQueryLog entries.
  void Record(const std::string& fingerprint, const std::string& status,
              double latency_us, int64_t k, double coverage, bool cache_hit,
              uint64_t trace_id, int64_t plan_nodes = 0,
              double dedup_ratio = 0.0) HALK_EXCLUDES(mu_);

  int64_t records_written() const HALK_EXCLUDES(mu_);
  const std::string& path() const { return path_; }

  /// Use Open / ToStream; public only for std::make_unique.
  ServeJournal(std::unique_ptr<std::ofstream> file, std::ostream* out,
               std::string path);

 private:
  const std::string path_;
  mutable Mutex mu_;
  std::unique_ptr<std::ofstream> file_ HALK_GUARDED_BY(mu_);
  std::ostream* out_ HALK_GUARDED_BY(mu_);  // file_.get() or caller-owned
  int64_t records_ HALK_GUARDED_BY(mu_) = 0;
};

}  // namespace halk::obs

#endif  // HALK_OBS_JOURNAL_H_
