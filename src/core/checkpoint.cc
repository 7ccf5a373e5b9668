#include "core/checkpoint.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace halk::core {

namespace {

constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxNameBytes = 256;

/// Visits every serialized ModelConfig field in format order; `fn`
/// returns false to stop. Shared by the encoder and the decoder so the two
/// cannot drift apart.
template <typename Config, typename Fn>
bool ForEachConfigField(Config& c, Fn&& fn) {
  return fn(c.num_entities) && fn(c.num_relations) && fn(c.dim) &&
         fn(c.hidden) && fn(c.rho) && fn(c.lambda) && fn(c.eta) &&
         fn(c.gamma) && fn(c.xi) && fn(c.seed);
}

/// Appends raw bytes to the file while rolling the checksum over them.
class BlobEncoder {
 public:
  explicit BlobEncoder(AtomicFileWriter* file) : file_(file) {}

  template <typename T>
  bool Pod(const T& value) {
    Raw(&value, sizeof(T));
    return true;
  }
  void Raw(const void* data, size_t n) {
    file_->Write(data, n);
    hash_ = Fnv1a64(data, n, hash_);
  }
  uint64_t hash() const { return hash_; }

 private:
  AtomicFileWriter* file_;
  uint64_t hash_ = kFnv1a64Seed;
};

/// Reads raw bytes while rolling the checksum, never past the file's end:
/// `remaining()` is what every size field is checked against before
/// anything is allocated for it.
class BlobDecoder {
 public:
  BlobDecoder(std::FILE* file, uint64_t size) : file_(file), remaining_(size) {}

  template <typename T>
  bool Pod(T* value) {
    return Raw(value, sizeof(T));
  }
  bool Raw(void* data, size_t n) {
    if (n > remaining_ || std::fread(data, 1, n, file_) != n) return false;
    remaining_ -= n;
    hash_ = Fnv1a64(data, n, hash_);
    return true;
  }
  uint64_t remaining() const { return remaining_; }
  uint64_t hash() const { return hash_; }

 private:
  std::FILE* file_;
  uint64_t remaining_;
  uint64_t hash_ = kFnv1a64Seed;
};

Status DecodeTensorBlob(std::FILE* file, uint64_t size,
                        const char (&magic)[8], const std::string& path,
                        TensorBlob* out) {
  const std::string want(magic, sizeof(magic));
  BlobDecoder r(file, size);
  char got[8];
  if (!r.Raw(got, sizeof(got)) || std::memcmp(got, magic, sizeof(got)) != 0) {
    return Status::ParseError("not a " + want + " tensor blob: " + path);
  }
  uint32_t version = 0;
  if (!r.Pod(&version) || version != kVersion) {
    return Status::ParseError(StrFormat("unsupported %s version %u: %s",
                                        want.c_str(), version, path.c_str()));
  }
  uint32_t name_len = 0;
  if (!r.Pod(&name_len) || name_len > kMaxNameBytes ||
      name_len > r.remaining()) {
    return Status::ParseError("bad model name length: " + path);
  }
  TensorBlob blob;
  blob.model_name.resize(name_len);
  if (!r.Raw(blob.model_name.data(), name_len) ||
      !ForEachConfigField(blob.config,
                          [&r](auto& field) { return r.Pod(&field); })) {
    return Status::ParseError("truncated " + want + " header: " + path);
  }
  // Every tensor costs at least its u64 numel, and the u64 trailer
  // follows them all: a count or a size that cannot fit in the bytes left
  // is rejected before it sizes any allocation.
  uint64_t count = 0;
  if (!r.Pod(&count) || r.remaining() < sizeof(uint64_t) ||
      count > (r.remaining() - sizeof(uint64_t)) / sizeof(uint64_t)) {
    return Status::ParseError("bad " + want + " tensor count: " + path);
  }
  blob.offsets.reserve(static_cast<size_t>(count) + 1);
  blob.offsets.push_back(0);
  blob.data.reserve(static_cast<size_t>(
      (r.remaining() - sizeof(uint64_t) * (count + 1)) / sizeof(float)));
  for (uint64_t t = 0; t < count; ++t) {
    uint64_t numel = 0;
    // Bytes that must stay for the later numel fields and the trailer.
    const uint64_t tail = sizeof(uint64_t) * (count - t);
    if (!r.Pod(&numel) || numel > (r.remaining() - tail) / sizeof(float)) {
      return Status::ParseError(
          StrFormat("bad %s tensor %llu size: %s", want.c_str(),
                    static_cast<unsigned long long>(t), path.c_str()));
    }
    const size_t begin = blob.data.size();
    blob.data.resize(begin + static_cast<size_t>(numel));
    if (!r.Raw(blob.data.data() + begin, sizeof(float) * numel)) {
      return Status::ParseError("truncated " + want + " tensor data: " + path);
    }
    blob.offsets.push_back(blob.data.size());
  }
  const uint64_t computed = r.hash();
  uint64_t stored = 0;
  if (!r.Pod(&stored) || stored != computed || r.remaining() != 0) {
    return Status::ParseError(want + " checksum mismatch: " + path);
  }
  blob.checksum = stored;
  *out = std::move(blob);
  return Status::OK();
}

bool ConfigsMatch(const ModelConfig& a, const ModelConfig& b) {
  return a.num_entities == b.num_entities &&
         a.num_relations == b.num_relations && a.dim == b.dim &&
         a.hidden == b.hidden;
}

}  // namespace

Result<uint64_t> WriteTensorBlob(const std::string& path,
                                 const char (&magic)[8],
                                 const std::string& model_name,
                                 const ModelConfig& config,
                                 const std::vector<TensorView>& tensors) {
  if (model_name.size() > kMaxNameBytes) {
    return Status::InvalidArgument("model name too long: " + model_name);
  }
  AtomicFileWriter file;
  HALK_RETURN_NOT_OK(file.Open(path));
  BlobEncoder w(&file);
  w.Raw(magic, sizeof(magic));
  w.Pod(kVersion);
  w.Pod(static_cast<uint32_t>(model_name.size()));
  w.Raw(model_name.data(), model_name.size());
  ForEachConfigField(config, [&w](const auto& field) { return w.Pod(field); });
  w.Pod(static_cast<uint64_t>(tensors.size()));
  for (const TensorView& t : tensors) {
    w.Pod(static_cast<uint64_t>(t.numel));
    w.Raw(t.data, sizeof(float) * t.numel);
  }
  const uint64_t checksum = w.hash();
  file.Write(&checksum, sizeof(checksum));
  HALK_RETURN_NOT_OK(file.Commit());
  return checksum;
}

Status ReadTensorBlob(const std::string& path, const char (&magic)[8],
                      TensorBlob* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IOError("cannot open " + path);
  struct stat st {};
  Status status =
      ::fstat(::fileno(file), &st) == 0 && S_ISREG(st.st_mode)
          ? DecodeTensorBlob(file, static_cast<uint64_t>(st.st_size), magic,
                             path, out)
          : Status::IOError("not a regular file: " + path);
  std::fclose(file);
  return status;
}

Status SaveCheckpoint(const QueryModel& model, const std::string& path) {
  const std::vector<tensor::Tensor> params = model.Parameters();
  std::vector<TensorView> views;
  views.reserve(params.size());
  for (const tensor::Tensor& p : params) {
    views.push_back({p.data(), static_cast<size_t>(p.numel())});
  }
  return WriteTensorBlob(path, kCheckpointMagic, model.name(), model.config(),
                         views)
      .status();
}

Status LoadCheckpoint(QueryModel* model, const std::string& path) {
  TensorBlob blob;
  HALK_RETURN_NOT_OK(ReadTensorBlob(path, kCheckpointMagic, &blob));
  if (blob.model_name != model->name()) {
    return Status::InvalidArgument("checkpoint is for model '" +
                                   blob.model_name + "', not '" +
                                   model->name() + "'");
  }
  if (!ConfigsMatch(blob.config, model->config())) {
    return Status::InvalidArgument(
        "checkpoint configuration does not match the model");
  }
  std::vector<tensor::Tensor> params = model->Parameters();
  if (blob.num_tensors() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %zu tensors, model has %zu",
                  blob.num_tensors(), params.size()));
  }
  for (size_t t = 0; t < params.size(); ++t) {
    if (blob.tensor(t).numel != static_cast<size_t>(params[t].numel())) {
      return Status::InvalidArgument(StrFormat("tensor %zu shape mismatch", t));
    }
  }
  for (size_t t = 0; t < params.size(); ++t) {
    const TensorView src = blob.tensor(t);
    std::copy(src.data, src.data + src.numel, params[t].data());
  }
  return Status::OK();
}

}  // namespace halk::core
