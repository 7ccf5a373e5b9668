#ifndef HALK_CORE_CHECKPOINT_H_
#define HALK_CORE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"

namespace halk::core {

/// The tensor blob: the one persisted byte layout of model parameters,
/// shared by `--checkpoint` files (magic kCheckpointMagic) and a store
/// snapshot's params blob (kParamsBlobMagic, store/writer.h). Only the
/// magic tells the two apart.
///
/// Format (little-endian):
///   magic[8] | u32 version | u32 name_len | name bytes
///   | ModelConfig fields | u64 num_tensors
///   | per tensor: u64 numel, float data[numel]
///   | u64 FNV-1a-64 checksum of everything above
inline constexpr char kCheckpointMagic[8] = {'H', 'A', 'L', 'K',
                                             'C', 'K', 'P', 'T'};
inline constexpr char kParamsBlobMagic[8] = {'H', 'A', 'L', 'K',
                                             'P', 'R', 'M', 'B'};

/// One tensor to write: `numel` floats at `data` (borrowed).
struct TensorView {
  const float* data = nullptr;
  size_t numel = 0;
};

/// A decoded tensor blob. The tensors sit back to back in `data`; tensor
/// t spans [offsets[t], offsets[t + 1]).
struct TensorBlob {
  std::string model_name;
  ModelConfig config;
  std::vector<float> data;
  std::vector<size_t> offsets;
  uint64_t checksum = 0;  // the verified trailer

  size_t num_tensors() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  TensorView tensor(size_t t) const {
    return {data.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
};

/// Writes a blob durably and atomically (common/atomic_file.h): `path`
/// keeps its previous contents unless the whole write succeeds. Returns
/// the trailing checksum.
[[nodiscard]] Result<uint64_t> WriteTensorBlob(
    const std::string& path, const char (&magic)[8],
    const std::string& model_name, const ModelConfig& config,
    const std::vector<TensorView>& tensors);

/// Reads and checksum-verifies a blob with the given magic. Safe on
/// arbitrary bytes: a tensor count or size that does not fit in the rest
/// of the file is a ParseError before anything is allocated for it, so no
/// input makes the reader allocate more than the file's size. Bytes after
/// the checksum are a ParseError too: an accepted file re-encodes to
/// exactly its own bytes.
[[nodiscard]] Status ReadTensorBlob(const std::string& path,
                                    const char (&magic)[8], TensorBlob* out);

/// Checkpoints a query model: all trainable parameters (in `Parameters()`
/// order) plus its name and configuration, as a kCheckpointMagic blob. A
/// checkpoint written by one model can be restored into any freshly
/// constructed model of the same architecture and configuration — offline
/// training and online serving can live in different processes, as the
/// paper's deployment sketch assumes.
[[nodiscard]] Status SaveCheckpoint(const QueryModel& model, const std::string& path);

/// Restores parameters into `model`; fails (without partial writes) on
/// magic/version/name/shape/checksum mismatch.
[[nodiscard]] Status LoadCheckpoint(QueryModel* model, const std::string& path);

}  // namespace halk::core

#endif  // HALK_CORE_CHECKPOINT_H_
