#ifndef HALK_STORE_SNAPSHOT_H_
#define HALK_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_model.h"

namespace halk::store {

inline constexpr char kManifestFileName[] = "MANIFEST.halksnap";
inline constexpr char kParamsFileName[] = "params.halkblob";
inline constexpr uint32_t kSnapshotVersion = 1;

/// One shard file listed by a snapshot manifest.
struct SnapshotShardEntry {
  std::string file;            // name relative to the snapshot directory
  int64_t entity_begin = 0;
  int64_t entity_end = 0;
  /// The shard file's header checksum (which transitively covers its block
  /// checksum table): binding it into the manifest versions the exact file
  /// contents, not just the name.
  uint64_t header_checksum = 0;
};

/// A versioned, immutable set of shard files plus the model configuration
/// and (optionally) a non-entity parameter blob — the unit that supersedes
/// the monolithic `--checkpoint` blob for serving. A snapshot is a
/// directory: MANIFEST.halksnap, `*.halkstore` shard files covering entity
/// ids [0, config.num_entities) contiguously, and params.halkblob when the
/// model's trained operator weights ride along.
struct StoreSnapshot {
  uint32_t version = kSnapshotVersion;
  std::string model_name;
  core::ModelConfig config;
  bool has_params = false;
  uint64_t params_checksum = 0;
  std::vector<SnapshotShardEntry> shards;
};

/// Renders the manifest text: line-oriented `key value...` pairs ending in
/// a `checksum` line (FNV-1a-64 of every preceding byte). Floats print with
/// float round-trip precision so config survives text form bit-exactly.
std::string SerializeManifest(const StoreSnapshot& snapshot);

/// Strict parse of manifest text: fixed line order, no unknown keys, every
/// field range-checked, shard ranges required to tile
/// [0, config.num_entities) in order, and the trailing checksum verified.
/// Safe on adversarial input — this is the fuzzed surface.
[[nodiscard]] Status ParseManifest(const std::string& text,
                                   StoreSnapshot* out);

/// Reads and parses `<dir>/MANIFEST.halksnap`.
[[nodiscard]] Status LoadManifest(const std::string& dir, StoreSnapshot* out);

/// Durably and atomically (common/atomic_file.h) writes
/// `<dir>/MANIFEST.halksnap`.
[[nodiscard]] Status WriteManifest(const std::string& dir,
                                   const StoreSnapshot& snapshot);

}  // namespace halk::store

#endif  // HALK_STORE_SNAPSHOT_H_
