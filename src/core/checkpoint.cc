#include "core/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"

namespace halk::core {

namespace {

constexpr char kMagic[8] = {'H', 'A', 'L', 'K', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(std::ofstream* out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    Raw(&value, sizeof(T));
  }

  void Raw(const void* data, size_t n) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(n));
    hash_ = Fnv1a64(data, n, hash_);
  }

  uint64_t hash() const { return hash_; }

 private:
  std::ofstream* out_;
  uint64_t hash_ = kFnv1a64Seed;
};

class Reader {
 public:
  explicit Reader(std::ifstream* in) : in_(in) {}

  template <typename T>
  bool Pod(T* value) {
    return Raw(value, sizeof(T));
  }

  bool Raw(void* data, size_t n) {
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in_->good()) return false;
    hash_ = Fnv1a64(data, n, hash_);
    return true;
  }

  uint64_t hash() const { return hash_; }

 private:
  std::ifstream* in_;
  uint64_t hash_ = kFnv1a64Seed;
};

void WriteConfig(Writer* w, const ModelConfig& c) {
  w->Pod(c.num_entities);
  w->Pod(c.num_relations);
  w->Pod(c.dim);
  w->Pod(c.hidden);
  w->Pod(c.rho);
  w->Pod(c.lambda);
  w->Pod(c.eta);
  w->Pod(c.gamma);
  w->Pod(c.xi);
  w->Pod(c.seed);
}

bool ReadConfig(Reader* r, ModelConfig* c) {
  return r->Pod(&c->num_entities) && r->Pod(&c->num_relations) &&
         r->Pod(&c->dim) && r->Pod(&c->hidden) && r->Pod(&c->rho) &&
         r->Pod(&c->lambda) && r->Pod(&c->eta) && r->Pod(&c->gamma) &&
         r->Pod(&c->xi) && r->Pod(&c->seed);
}

bool ConfigsMatch(const ModelConfig& a, const ModelConfig& b) {
  return a.num_entities == b.num_entities &&
         a.num_relations == b.num_relations && a.dim == b.dim &&
         a.hidden == b.hidden;
}

}  // namespace

Status SaveCheckpoint(const QueryModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  Writer w(&out);
  w.Raw(kMagic, sizeof(kMagic));
  w.Pod(kVersion);
  const std::string name = model.name();
  const uint32_t name_len = static_cast<uint32_t>(name.size());
  w.Pod(name_len);
  w.Raw(name.data(), name.size());
  WriteConfig(&w, model.config());

  const std::vector<tensor::Tensor> params = model.Parameters();
  const uint64_t num_tensors = params.size();
  w.Pod(num_tensors);
  for (const tensor::Tensor& p : params) {
    const uint64_t numel = static_cast<uint64_t>(p.numel());
    w.Pod(numel);
    w.Raw(p.data(), sizeof(float) * numel);
  }
  const uint64_t checksum = w.hash();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status LoadCheckpoint(QueryModel* model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  Reader r(&in);
  char magic[8];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("bad checkpoint magic: " + path);
  }
  uint32_t version = 0;
  if (!r.Pod(&version) || version != kVersion) {
    return Status::ParseError(
        StrFormat("unsupported checkpoint version %u", version));
  }
  uint32_t name_len = 0;
  if (!r.Pod(&name_len) || name_len > 256) {
    return Status::ParseError("bad model name length");
  }
  std::string name(name_len, '\0');
  if (!r.Raw(name.data(), name_len)) {
    return Status::ParseError("truncated checkpoint: " + path);
  }
  if (name != model->name()) {
    return Status::InvalidArgument("checkpoint is for model '" + name +
                                   "', not '" + model->name() + "'");
  }
  ModelConfig saved;
  if (!ReadConfig(&r, &saved)) {
    return Status::ParseError("truncated checkpoint config");
  }
  if (!ConfigsMatch(saved, model->config())) {
    return Status::InvalidArgument(
        "checkpoint configuration does not match the model");
  }

  std::vector<tensor::Tensor> params = model->Parameters();
  uint64_t num_tensors = 0;
  if (!r.Pod(&num_tensors) || num_tensors != params.size()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %llu tensors, model has %zu",
                  static_cast<unsigned long long>(num_tensors),
                  params.size()));
  }
  // Stage into buffers first: no partial mutation on failure.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t t = 0; t < params.size(); ++t) {
    uint64_t numel = 0;
    if (!r.Pod(&numel) ||
        numel != static_cast<uint64_t>(params[t].numel())) {
      return Status::InvalidArgument(
          StrFormat("tensor %zu shape mismatch", t));
    }
    staged[t].resize(static_cast<size_t>(numel));
    if (!r.Raw(staged[t].data(), sizeof(float) * numel)) {
      return Status::ParseError("truncated tensor data");
    }
  }
  const uint64_t computed = r.hash();
  uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in.good() || checksum != computed) {
    return Status::ParseError("checkpoint checksum mismatch: " + path);
  }
  for (size_t t = 0; t < params.size(); ++t) {
    std::copy(staged[t].begin(), staged[t].end(), params[t].data());
  }
  return Status::OK();
}

}  // namespace halk::core
