#include "store/convert.h"

#include <algorithm>
#include <vector>

#include "common/string_util.h"
#include "core/checkpoint.h"
#include "store/writer.h"

namespace halk::store {

Status ConvertCheckpointToSnapshot(const std::string& blob_path,
                                   const std::string& dir,
                                   int64_t num_shards) {
  core::TensorBlob blob;
  HALK_RETURN_NOT_OK(
      core::ReadTensorBlob(blob_path, core::kCheckpointMagic, &blob));
  if (blob.num_tensors() == 0) {
    return Status::InvalidArgument("checkpoint carries no tensors");
  }
  const core::ModelConfig& c = blob.config;
  const uint64_t table_numel = static_cast<uint64_t>(c.num_entities) *
                               static_cast<uint64_t>(c.dim);
  const core::TensorView table = blob.tensor(0);
  if (table.numel != table_numel) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint tensor 0 has %zu floats, expected %llu (the entity "
        "table)",
        table.numel, static_cast<unsigned long long>(table_numel)));
  }
  SnapshotWriterOptions options;
  options.dir = dir;
  options.model_name = blob.model_name;
  options.config = c;
  options.num_shards = num_shards;
  std::unique_ptr<SnapshotWriter> writer;
  HALK_ASSIGN_OR_RETURN(writer, SnapshotWriter::Create(options));
  HALK_RETURN_NOT_OK(writer->AppendEntityRows(table.data, c.num_entities));
  std::vector<core::TensorView> params;
  params.reserve(blob.num_tensors() - 1);
  for (size_t t = 1; t < blob.num_tensors(); ++t) {
    params.push_back(blob.tensor(t));
  }
  HALK_RETURN_NOT_OK(writer->SetParams(std::move(params)));
  return writer->Finish();
}

Status ConvertSnapshotToCheckpoint(const std::string& dir,
                                   const std::string& blob_path) {
  EmbeddingStore::OpenOptions options;
  options.verify_checksums = true;
  std::unique_ptr<EmbeddingStore> store;
  HALK_ASSIGN_OR_RETURN(store, EmbeddingStore::Open(dir, options));
  core::TensorBlob params;
  HALK_RETURN_NOT_OK(ReadParamsBlob(dir, store->snapshot(), &params));
  const int64_t n = store->num_entities();
  const int64_t d = store->dim();
  std::vector<float> table(static_cast<size_t>(n * d));
  for (int64_t e = 0; e < n; ++e) {
    store->CopyRow(e, table.data() + e * d);
  }
  std::vector<core::TensorView> tensors = {{table.data(), table.size()}};
  for (size_t t = 0; t < params.num_tensors(); ++t) {
    tensors.push_back(params.tensor(t));
  }
  return core::WriteTensorBlob(blob_path, core::kCheckpointMagic,
                               params.model_name, params.config, tensors)
      .status();
}

Result<std::unique_ptr<core::HalkModel>> OpenServingModel(
    const EmbeddingStore& store, const kg::NodeGrouping* grouping) {
  const StoreSnapshot& snap = store.snapshot();
  if (snap.model_name != "HaLk") {
    return Status::InvalidArgument("snapshot is for model '" +
                                   snap.model_name + "', not 'HaLk'");
  }
  core::TensorBlob params;
  HALK_RETURN_NOT_OK(ReadParamsBlob(store.dir(), snap, &params));
  auto model = std::make_unique<core::HalkModel>(snap.config, grouping,
                                                 &store);
  // Store-backed Parameters() excludes the entity table, so blob tensor i
  // maps straight onto parameter i.
  std::vector<tensor::Tensor> dst = model->Parameters();
  if (dst.size() != params.num_tensors()) {
    return Status::InvalidArgument(
        StrFormat("params blob has %zu tensors, model expects %zu",
                  params.num_tensors(), dst.size()));
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    const core::TensorView src = params.tensor(i);
    if (static_cast<size_t>(dst[i].numel()) != src.numel) {
      return Status::InvalidArgument(
          StrFormat("params tensor %zu shape mismatch", i));
    }
    std::copy(src.data, src.data + src.numel, dst[i].data());
  }
  return model;
}

}  // namespace halk::store
