#include "store/writer.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/string_util.h"
#include "store/format.h"

namespace halk::store {

namespace {

constexpr char kParamsMagic[8] = {'H', 'A', 'L', 'K', 'P', 'R', 'M', 'B'};
constexpr uint32_t kParamsVersion = 1;

/// Rolling-FNV stream writer/reader matching the legacy checkpoint byte
/// conventions (core/checkpoint.cc): raw PODs, trailing u64 checksum that
/// covers every preceding byte.
class BlobWriter {
 public:
  explicit BlobWriter(std::ofstream* out) : out_(out) {}

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

class BlobReader {
 public:
  explicit BlobReader(std::ifstream* in) : in_(in) {}

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

void PutConfig(BlobWriter* w, const core::ModelConfig& c) {
  // Field order matches the legacy checkpoint so the two formats cannot
  // drift apart silently.
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

bool GetConfig(BlobReader* r, core::ModelConfig* c) {
  return r->Pod(&c->num_entities) && r->Pod(&c->num_relations) &&
         r->Pod(&c->dim) && r->Pod(&c->hidden) && r->Pod(&c->rho) &&
         r->Pod(&c->lambda) && r->Pod(&c->eta) && r->Pod(&c->gamma) &&
         r->Pod(&c->xi) && r->Pod(&c->seed);
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError(
      StrFormat("mkdir %s: %s", dir.c_str(), std::strerror(errno)));
}

}  // namespace

Status WriteParamsBlob(const std::string& path,
                       const std::string& model_name,
                       const core::ModelConfig& config,
                       const std::vector<std::vector<float>>& tensors,
                       uint64_t* checksum) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  BlobWriter w(&out);
  w.Raw(kParamsMagic, sizeof(kParamsMagic));
  w.Pod(kParamsVersion);
  const uint32_t name_len = static_cast<uint32_t>(model_name.size());
  w.Pod(name_len);
  w.Raw(model_name.data(), model_name.size());
  PutConfig(&w, config);
  const uint64_t num_tensors = tensors.size();
  w.Pod(num_tensors);
  for (const std::vector<float>& t : tensors) {
    const uint64_t numel = t.size();
    w.Pod(numel);
    w.Raw(t.data(), sizeof(float) * t.size());
  }
  const uint64_t h = w.hash();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!out.good()) return Status::IOError("write failed: " + tmp);
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  *checksum = h;
  return Status::OK();
}

Status ReadParamsBlob(const std::string& path, std::string* model_name,
                      core::ModelConfig* config,
                      std::vector<std::vector<float>>* tensors,
                      uint64_t* checksum) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  BlobReader r(&in);
  char magic[8];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kParamsMagic, sizeof(kParamsMagic)) != 0) {
    return Status::ParseError("bad params-blob magic: " + path);
  }
  uint32_t version = 0;
  if (!r.Pod(&version) || version != kParamsVersion) {
    return Status::ParseError(
        StrFormat("unsupported params-blob version %u", version));
  }
  uint32_t name_len = 0;
  if (!r.Pod(&name_len) || name_len > 256) {
    return Status::ParseError("bad model name length: " + path);
  }
  std::string name(name_len, '\0');
  if (!r.Raw(name.data(), name_len)) {
    return Status::ParseError("truncated params blob: " + path);
  }
  core::ModelConfig c;
  if (!GetConfig(&r, &c)) {
    return Status::ParseError("truncated params-blob config: " + path);
  }
  uint64_t num_tensors = 0;
  if (!r.Pod(&num_tensors) || num_tensors > 4096) {
    return Status::ParseError("bad params-blob tensor count: " + path);
  }
  std::vector<std::vector<float>> staged(num_tensors);
  for (uint64_t t = 0; t < num_tensors; ++t) {
    uint64_t numel = 0;
    if (!r.Pod(&numel) || numel > (uint64_t{1} << 32)) {
      return Status::ParseError(
          StrFormat("bad params-blob tensor %llu size",
                    static_cast<unsigned long long>(t)));
    }
    staged[t].resize(static_cast<size_t>(numel));
    if (!r.Raw(staged[t].data(), sizeof(float) * staged[t].size())) {
      return Status::ParseError("truncated params-blob tensor data: " + path);
    }
  }
  const uint64_t computed = r.hash();
  uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in.good() || stored != computed) {
    return Status::ParseError("params-blob checksum mismatch: " + path);
  }
  *model_name = std::move(name);
  *config = c;
  *tensors = std::move(staged);
  *checksum = stored;
  return Status::OK();
}

SnapshotWriter::SnapshotWriter(const SnapshotWriterOptions& options)
    : options_(options) {}

Result<std::unique_ptr<SnapshotWriter>> SnapshotWriter::Create(
    const SnapshotWriterOptions& options) {
  const core::ModelConfig& c = options.config;
  if (c.num_entities <= 0 || c.dim <= 0) {
    return Status::InvalidArgument("snapshot config needs entities and dim");
  }
  if (options.num_shards <= 0 || options.num_shards > c.num_entities) {
    return Status::InvalidArgument(
        StrFormat("bad shard-file count %lld for %lld entities",
                  static_cast<long long>(options.num_shards),
                  static_cast<long long>(c.num_entities)));
  }
  if (options.rows_per_group == 0) {
    return Status::InvalidArgument("rows_per_group must be positive");
  }
  HALK_RETURN_NOT_OK(EnsureDir(options.dir));

  auto writer = std::unique_ptr<SnapshotWriter>(
      new SnapshotWriter(options));  // halk_lint:allow no-raw-new-delete private ctor
  writer->snapshot_.model_name = options.model_name;
  writer->snapshot_.config = c;
  // Balanced contiguous partition: the first `rem` files take one extra row.
  const int64_t base = c.num_entities / options.num_shards;
  const int64_t rem = c.num_entities % options.num_shards;
  int64_t begin = 0;
  for (int64_t i = 0; i < options.num_shards; ++i) {
    const int64_t end = begin + base + (i < rem ? 1 : 0);
    SnapshotShardEntry entry;
    entry.file = StrFormat("entities-%lld.halkstore",
                           static_cast<long long>(i));
    entry.entity_begin = begin;
    entry.entity_end = end;
    writer->snapshot_.shards.push_back(entry);
    writer->writers_.push_back(std::make_unique<ShardFileWriter>(
        options.dir + "/" + entry.file, static_cast<uint32_t>(c.dim), begin,
        end, options.rows_per_group));
    begin = end;
  }
  return writer;
}

Status SnapshotWriter::AppendEntityRows(const float* rows, int64_t n) {
  if (finished_) return Status::InvalidArgument("snapshot already finished");
  while (n > 0) {
    if (current_file_ >= static_cast<int64_t>(writers_.size())) {
      return Status::InvalidArgument("more rows than config.num_entities");
    }
    const SnapshotShardEntry& entry =
        snapshot_.shards[static_cast<size_t>(current_file_)];
    const int64_t room = entry.entity_end - appended_rows_;
    const int64_t take = std::min(room, n);
    HALK_RETURN_NOT_OK(
        writers_[static_cast<size_t>(current_file_)]->Append(rows, take));
    appended_rows_ += take;
    rows += take * options_.config.dim;
    n -= take;
    if (appended_rows_ == entry.entity_end) ++current_file_;
  }
  return Status::OK();
}

Status SnapshotWriter::SetParams(std::vector<std::vector<float>> tensors) {
  if (finished_) return Status::InvalidArgument("snapshot already finished");
  params_ = std::move(tensors);
  has_params_ = true;
  return Status::OK();
}

Status SnapshotWriter::Finish() {
  if (finished_) return Status::InvalidArgument("snapshot already finished");
  if (appended_rows_ != options_.config.num_entities) {
    return Status::InvalidArgument(StrFormat(
        "snapshot got %lld of %lld entity rows",
        static_cast<long long>(appended_rows_),
        static_cast<long long>(options_.config.num_entities)));
  }
  for (size_t i = 0; i < writers_.size(); ++i) {
    HALK_RETURN_NOT_OK(writers_[i]->Finish());
    snapshot_.shards[i].header_checksum = writers_[i]->header_checksum();
  }
  if (has_params_) {
    snapshot_.has_params = true;
    HALK_RETURN_NOT_OK(WriteParamsBlob(
        options_.dir + "/" + kParamsFileName, snapshot_.model_name,
        snapshot_.config, params_, &snapshot_.params_checksum));
  }
  // Manifest last: its presence is what makes the directory a loadable
  // snapshot.
  HALK_RETURN_NOT_OK(WriteManifest(options_.dir, snapshot_));
  finished_ = true;
  return Status::OK();
}

Status WriteModelSnapshot(const core::HalkModel& model,
                          const std::string& dir, int64_t num_shards) {
  SnapshotWriterOptions options;
  options.dir = dir;
  options.model_name = model.name();
  options.config = model.config();
  options.num_shards = num_shards;
  std::unique_ptr<SnapshotWriter> writer;
  HALK_ASSIGN_OR_RETURN(writer, SnapshotWriter::Create(options));
  const tensor::Tensor& table = model.entity_angles();
  HALK_RETURN_NOT_OK(writer->AppendEntityRows(
      table.data(), options.config.num_entities));
  // Everything but the entity table (Parameters() index 0) rides in the
  // params blob.
  const std::vector<tensor::Tensor> params = model.Parameters();
  std::vector<std::vector<float>> tensors;
  tensors.reserve(params.size() - 1);
  for (size_t i = 1; i < params.size(); ++i) {
    const tensor::Tensor& p = params[i];
    tensors.emplace_back(p.data(), p.data() + p.numel());
  }
  HALK_RETURN_NOT_OK(writer->SetParams(std::move(tensors)));
  return writer->Finish();
}

}  // namespace halk::store
