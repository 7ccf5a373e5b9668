#ifndef HALK_STORE_CONVERT_H_
#define HALK_STORE_CONVERT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/halk_model.h"
#include "kg/groups.h"
#include "store/store.h"

namespace halk::store {

/// Checkpoint blob (core::SaveCheckpoint) -> store snapshot: the entity
/// table (tensor 0) streams into `num_shards` shard files, the rest
/// becomes the params blob.
[[nodiscard]] Status ConvertCheckpointToSnapshot(const std::string& blob_path,
                                                 const std::string& dir,
                                                 int64_t num_shards);

/// Store snapshot -> checkpoint blob (requires the snapshot to carry
/// params), byte-identical to core::SaveCheckpoint of a model holding the
/// same tensors. Materializes the entity table in RAM — meant for
/// checkpoint-scale models, not the streamed million-entity stores.
[[nodiscard]] Status ConvertSnapshotToCheckpoint(const std::string& dir,
                                                 const std::string& blob_path);

/// Builds a serving HalkModel backed by an open store: the entity table
/// stays in the store's mappings (never copied into RAM) and the non-entity
/// operator parameters load from the snapshot's params blob. Requires
/// model_name "HaLk" and has_params. The store must outlive the model.
[[nodiscard]] Result<std::unique_ptr<core::HalkModel>> OpenServingModel(
    const EmbeddingStore& store, const kg::NodeGrouping* grouping);

}  // namespace halk::store

#endif  // HALK_STORE_CONVERT_H_
