#include "obs/journal.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace halk::obs {

const JsonValue* FindKey(const JsonObject& object, const std::string& key) {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent reader over one line. Positions are byte offsets;
/// every failure path reports one.
class LineParser {
 public:
  explicit LineParser(const std::string& text) : text_(text) {}

  Result<JsonObject> Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    JsonObject object;
    SkipSpace();
    if (Consume('}')) {
      SkipSpace();
      return AtEnd() ? Result<JsonObject>(std::move(object))
                     : Error("trailing bytes after object");
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return Error("expected string key");
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      JsonValue value;
      HALK_RETURN_NOT_OK(ParseValue(&value));
      object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    SkipSpace();
    if (!AtEnd()) return Error("trailing bytes after object");
    return object;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at byte " + std::to_string(pos_));
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  /// Appends `cp` as UTF-8. Unpaired surrogates become U+FFFD.
  static void AppendCodepoint(uint32_t cp, std::string* out) {
    if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (true) {
      if (AtEnd()) return false;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        // Raw control characters are invalid JSON but harmless to keep;
        // the journal never emits them and the fuzzer must not crash.
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-DFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.compare(pos_, 2, "\\u") == 0) {
            const size_t saved = pos_;
            pos_ += 2;
            uint32_t lo = 0;
            if (ParseHex4(&lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = saved;  // lone high surrogate → U+FFFD below
            }
          }
          AppendCodepoint(cp, out);
          break;
        }
        default:
          return false;
      }
    }
  }

  Status ParseValue(JsonValue* out) {
    const char c = Peek();
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return Error("malformed string");
      *out = JsonValue::String(std::move(s));
      return Status::OK();
    }
    if (c == 't') {
      if (!ConsumeLiteral("true")) return Error("malformed literal");
      *out = JsonValue::Bool(true);
      return Status::OK();
    }
    if (c == 'f') {
      if (!ConsumeLiteral("false")) return Error("malformed literal");
      *out = JsonValue::Bool(false);
      return Status::OK();
    }
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return Error("malformed literal");
      *out = JsonValue::Null();
      return Status::OK();
    }
    if (c == '{' || c == '[') {
      return Error("nested containers are not valid in journal lines");
    }
    // Number: validate the JSON grammar shape, then let strtod convert.
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
      return Error("expected a value");
    }
    // JSON integer part: a single 0, or 1-9 followed by digits.
    if (Peek() == '0') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        return Error("leading zero in number");
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        return Error("digit required after '.'");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        return Error("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), nullptr);
    // Overflow to +-inf is rejected so every accepted value can be
    // re-rendered by JsonLineBuilder (which has no non-finite form).
    if (!std::isfinite(value)) return Error("number out of range");
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonObject> ParseJsonLine(const std::string& line) {
  return LineParser(line).Parse();
}

JsonLineBuilder& JsonLineBuilder::Raw(const std::string& key,
                                      std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

JsonLineBuilder& JsonLineBuilder::Str(const std::string& key,
                                      const std::string& value) {
  return Raw(key, "\"" + CEscape(value) + "\"");
}

JsonLineBuilder& JsonLineBuilder::Num(const std::string& key, double value) {
  // JSON has no NaN/Inf; null keeps the line parseable.
  if (!std::isfinite(value)) return Null(key);
  return Raw(key, StrFormat("%.17g", value));
}

JsonLineBuilder& JsonLineBuilder::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonLineBuilder& JsonLineBuilder::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonLineBuilder& JsonLineBuilder::Null(const std::string& key) {
  return Raw(key, "null");
}

std::string JsonLineBuilder::Finish() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, rendered] : fields_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + CEscape(key) + "\":" + rendered;
  }
  out += "}";
  return out;
}

TrainJournal::TrainJournal(std::unique_ptr<std::ofstream> file,
                           std::ostream* out, std::string path)
    : path_(std::move(path)), file_(std::move(file)), out_(out) {}

Result<std::unique_ptr<TrainJournal>> TrainJournal::Open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) {
    return Status::IOError("cannot open journal file: " + path);
  }
  std::ostream* out = file.get();
  return std::make_unique<TrainJournal>(std::move(file), out, path);
}

std::unique_ptr<TrainJournal> TrainJournal::ToStream(std::ostream* out) {
  return std::make_unique<TrainJournal>(nullptr, out, "");
}

void TrainJournal::Write(const JsonLineBuilder& record) {
  const std::string line = record.Finish();
  MutexLock lock(mu_);
  (*out_) << line << "\n";
  out_->flush();
  ++records_;
}

int64_t TrainJournal::records_written() const {
  MutexLock lock(mu_);
  return records_;
}

ServeJournal::ServeJournal(std::unique_ptr<std::ofstream> file,
                           std::ostream* out, std::string path)
    : path_(std::move(path)), file_(std::move(file)), out_(out) {}

Result<std::unique_ptr<ServeJournal>> ServeJournal::Open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) {
    return Status::IOError("cannot open serve journal file: " + path);
  }
  std::ostream* out = file.get();
  return std::make_unique<ServeJournal>(std::move(file), out, path);
}

std::unique_ptr<ServeJournal> ServeJournal::ToStream(std::ostream* out) {
  return std::make_unique<ServeJournal>(nullptr, out, "");
}

void ServeJournal::Record(const std::string& fingerprint,
                          const std::string& status, double latency_us,
                          int64_t k, double coverage, bool cache_hit,
                          uint64_t trace_id, int64_t plan_nodes,
                          double dedup_ratio) {
  JsonLineBuilder record;
  record.Str("record", "serve")
      .Str("fingerprint", fingerprint)
      .Str("status", status)
      .Num("latency_us", latency_us)
      .Int("k", k)
      .Num("coverage", coverage)
      .Bool("cache_hit", cache_hit)
      .Str("trace_id",
           StrFormat("%llx", static_cast<unsigned long long>(trace_id)))
      .Int("plan_nodes", plan_nodes)
      .Num("dedup_ratio", dedup_ratio);
  const std::string line = record.Finish();
  MutexLock lock(mu_);
  (*out_) << line << "\n";
  out_->flush();
  ++records_;
}

int64_t ServeJournal::records_written() const {
  MutexLock lock(mu_);
  return records_;
}

}  // namespace halk::obs
