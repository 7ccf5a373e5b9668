#include "store/snapshot.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/string_util.h"
#include "store/format.h"

namespace halk::store {

namespace {

void AppendFloat(std::string* out, const char* key, float value) {
  // %.9g is float round-trip precision: the config survives the text form
  // bit-exactly, which the blob<->snapshot round-trip test relies on.
  out->append(StrFormat("%s %.9g\n", key, static_cast<double>(value)));
}

void AppendInt(std::string* out, const char* key, long long value) {
  out->append(StrFormat("%s %lld\n", key, value));
}

/// Splits one line into whitespace-separated tokens (single spaces only;
/// the serializer never emits doubles, and the parser rejects them via
/// token-count checks).
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) out.push_back(std::move(token));
  return out;
}

bool ParseI64(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.size() < 3 || token[0] != '0' || token[1] != 'x') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str() + 2, &end, 16);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseF32(const std::string& token, float* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const float v = std::strtof(token.c_str(), &end);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A shard file name must be a plain file name — no path separators, so a
/// hostile manifest cannot point the reader outside its own directory.
bool SafeFileName(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

}  // namespace

std::string SerializeManifest(const StoreSnapshot& snapshot) {
  std::string out;
  AppendInt(&out, "halk-store-snapshot",
            static_cast<long long>(snapshot.version));
  out.append("model " + snapshot.model_name + "\n");
  const core::ModelConfig& c = snapshot.config;
  AppendInt(&out, "num_entities", static_cast<long long>(c.num_entities));
  AppendInt(&out, "num_relations", static_cast<long long>(c.num_relations));
  AppendInt(&out, "dim", static_cast<long long>(c.dim));
  AppendInt(&out, "hidden", static_cast<long long>(c.hidden));
  AppendFloat(&out, "rho", c.rho);
  AppendFloat(&out, "lambda", c.lambda);
  AppendFloat(&out, "eta", c.eta);
  AppendFloat(&out, "gamma", c.gamma);
  AppendFloat(&out, "xi", c.xi);
  out.append(StrFormat("seed %llu\n",
                       static_cast<unsigned long long>(c.seed)));
  if (snapshot.has_params) {
    out.append(StrFormat("params %s 0x%llx\n", kParamsFileName,
                         static_cast<unsigned long long>(
                             snapshot.params_checksum)));
  }
  for (const SnapshotShardEntry& s : snapshot.shards) {
    out.append(StrFormat(
        "shard %s %lld %lld 0x%llx\n", s.file.c_str(),
        static_cast<long long>(s.entity_begin),
        static_cast<long long>(s.entity_end),
        static_cast<unsigned long long>(s.header_checksum)));
  }
  out.append(StrFormat("checksum 0x%llx\n",
                       static_cast<unsigned long long>(
                           Fnv1a64(out.data(), out.size()))));
  return out;
}

Status ParseManifest(const std::string& text, StoreSnapshot* out) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      return Status::ParseError("manifest missing trailing newline");
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (pos != text.size()) {
    return Status::ParseError("manifest has bytes after the final newline");
  }
  if (lines.size() < 14) {
    return Status::ParseError("manifest truncated");
  }

  // The checksum line covers every byte before it.
  const std::vector<std::string> last = Tokens(lines.back());
  uint64_t declared = 0;
  if (last.size() != 2 || last[0] != "checksum" ||
      !ParseU64(last[1], &declared)) {
    return Status::ParseError("manifest missing checksum line");
  }
  const size_t body_bytes =
      text.size() - (lines.back().size() + 1);
  if (Fnv1a64(text.data(), body_bytes) != declared) {
    return Status::ParseError("manifest checksum mismatch");
  }

  StoreSnapshot snap;
  size_t i = 0;
  auto expect_i64 = [&](const char* key, int64_t lo, int64_t hi,
                        int64_t* dst) -> Status {
    if (i >= lines.size()) return Status::ParseError("manifest truncated");
    const std::vector<std::string> t = Tokens(lines[i]);
    int64_t v = 0;
    if (t.size() != 2 || t[0] != key || !ParseI64(t[1], &v) || v < lo ||
        v > hi) {
      return Status::ParseError(StrFormat("bad manifest line %zu: expected "
                                          "'%s <int>'",
                                          i + 1, key));
    }
    ++i;
    *dst = v;
    return Status::OK();
  };
  auto expect_f32 = [&](const char* key, float* dst) -> Status {
    if (i >= lines.size()) return Status::ParseError("manifest truncated");
    const std::vector<std::string> t = Tokens(lines[i]);
    if (t.size() != 2 || t[0] != key || !ParseF32(t[1], dst)) {
      return Status::ParseError(StrFormat("bad manifest line %zu: expected "
                                          "'%s <float>'",
                                          i + 1, key));
    }
    ++i;
    return Status::OK();
  };

  int64_t version = 0;
  HALK_RETURN_NOT_OK(expect_i64("halk-store-snapshot", 1, 1, &version));
  snap.version = static_cast<uint32_t>(version);
  {
    const std::vector<std::string> t = Tokens(lines[i]);
    if (t.size() != 2 || t[0] != "model" || t[1].size() > 256) {
      return Status::ParseError("bad manifest model line");
    }
    snap.model_name = t[1];
    ++i;
  }
  core::ModelConfig& c = snap.config;
  constexpr int64_t kMaxCount = int64_t{1} << 40;
  HALK_RETURN_NOT_OK(
      expect_i64("num_entities", 1, kMaxCount, &c.num_entities));
  HALK_RETURN_NOT_OK(
      expect_i64("num_relations", 1, kMaxCount, &c.num_relations));
  HALK_RETURN_NOT_OK(expect_i64("dim", 1, 1 << 20, &c.dim));
  HALK_RETURN_NOT_OK(expect_i64("hidden", 1, 1 << 20, &c.hidden));
  HALK_RETURN_NOT_OK(expect_f32("rho", &c.rho));
  HALK_RETURN_NOT_OK(expect_f32("lambda", &c.lambda));
  HALK_RETURN_NOT_OK(expect_f32("eta", &c.eta));
  HALK_RETURN_NOT_OK(expect_f32("gamma", &c.gamma));
  HALK_RETURN_NOT_OK(expect_f32("xi", &c.xi));
  {
    if (i >= lines.size()) return Status::ParseError("manifest truncated");
    const std::vector<std::string> t = Tokens(lines[i]);
    uint64_t seed = 0;
    if (t.size() != 2 || t[0] != "seed") {
      return Status::ParseError("bad manifest seed line");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(t[1].c_str(), &end, 10);
    if (errno != 0 || end != t[1].c_str() + t[1].size()) {
      return Status::ParseError("bad manifest seed value");
    }
    seed = static_cast<uint64_t>(v);
    c.seed = seed;
    ++i;
  }

  if (i < lines.size()) {
    const std::vector<std::string> t = Tokens(lines[i]);
    if (!t.empty() && t[0] == "params") {
      if (t.size() != 3 || t[1] != kParamsFileName ||
          !ParseU64(t[2], &snap.params_checksum)) {
        return Status::ParseError("bad manifest params line");
      }
      snap.has_params = true;
      ++i;
    }
  }

  int64_t next_begin = 0;
  while (i + 1 < lines.size()) {  // everything before the checksum line
    const std::vector<std::string> t = Tokens(lines[i]);
    SnapshotShardEntry entry;
    if (t.size() != 5 || t[0] != "shard" || !SafeFileName(t[1]) ||
        !ParseI64(t[2], &entry.entity_begin) ||
        !ParseI64(t[3], &entry.entity_end) ||
        !ParseU64(t[4], &entry.header_checksum)) {
      return Status::ParseError(
          StrFormat("bad manifest shard line %zu", i + 1));
    }
    entry.file = t[1];
    if (entry.entity_begin != next_begin ||
        entry.entity_end <= entry.entity_begin ||
        entry.entity_end > c.num_entities) {
      return Status::ParseError(StrFormat(
          "manifest shard ranges must tile [0, num_entities) in order "
          "(line %zu)",
          i + 1));
    }
    next_begin = entry.entity_end;
    snap.shards.push_back(std::move(entry));
    ++i;
  }
  if (next_begin != c.num_entities) {
    return Status::ParseError(
        "manifest shards do not cover the full entity range");
  }
  *out = std::move(snap);
  return Status::OK();
}

Status LoadManifest(const std::string& dir, StoreSnapshot* out) {
  const std::string path = dir + "/" + kManifestFileName;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Status parsed = ParseManifest(buf.str(), out);
  if (!parsed.ok()) {
    return Status(parsed.code(), path + ": " + parsed.message());
  }
  return Status::OK();
}

Status WriteManifest(const std::string& dir, const StoreSnapshot& snapshot) {
  const std::string text = SerializeManifest(snapshot);
  AtomicFileWriter file;
  HALK_RETURN_NOT_OK(file.Open(dir + "/" + kManifestFileName));
  file.Write(text.data(), text.size());
  return file.Commit();
}

}  // namespace halk::store
