#include "store/writer.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "store/format.h"

namespace halk::store {

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError(
      StrFormat("mkdir %s: %s", dir.c_str(), std::strerror(errno)));
}

}  // namespace

Status ReadParamsBlob(const std::string& dir, const StoreSnapshot& snapshot,
                      core::TensorBlob* out) {
  if (!snapshot.has_params) {
    return Status::InvalidArgument("snapshot has no params blob: " + dir);
  }
  HALK_RETURN_NOT_OK(core::ReadTensorBlob(dir + "/" + kParamsFileName,
                                          core::kParamsBlobMagic, out));
  if (out->checksum != snapshot.params_checksum) {
    return Status::ParseError(
        "params blob checksum disagrees with the manifest: " + dir);
  }
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

Status SnapshotWriter::SetParams(std::vector<core::TensorView> tensors) {
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
    HALK_ASSIGN_OR_RETURN(
        snapshot_.params_checksum,
        core::WriteTensorBlob(options_.dir + "/" + kParamsFileName,
                              core::kParamsBlobMagic, snapshot_.model_name,
                              snapshot_.config, params_));
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
  // params blob, written straight from the model's tensors.
  const std::vector<tensor::Tensor> params = model.Parameters();
  std::vector<core::TensorView> views;
  views.reserve(params.size() - 1);
  for (size_t i = 1; i < params.size(); ++i) {
    views.push_back({params[i].data(), static_cast<size_t>(params[i].numel())});
  }
  HALK_RETURN_NOT_OK(writer->SetParams(std::move(views)));
  return writer->Finish();
}

}  // namespace halk::store
