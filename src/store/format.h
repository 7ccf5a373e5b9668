#ifndef HALK_STORE_FORMAT_H_
#define HALK_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "common/hash.h"  // Fnv1a64: every checksum in the format
#include "common/status.h"

namespace halk::store {

// On-disk layout of one immutable shard file (`*.halkstore`), version 1.
// All multi-byte fields are fixed-width little-endian integers (the store
// is written and mapped on the same host class; the magic makes an
// endianness mismatch a clean ParseError, not silent garbage).
//
//   [header page]        kPageBytes, fields at fixed offsets, zero padded,
//                        FNV-1a-64 checksummed.
//   [checksum table]     num_groups * dim uint64 block checksums, starting
//                        at kPageBytes, itself covered by
//                        header.table_checksum.
//   [column blocks]      starting at the next page boundary. Rows are
//                        batched into groups of `rows_per_group`; inside a
//                        group the data is dimension-major: block (g, j)
//                        holds dimension j of every row of group g,
//                        zero-padded to a page multiple. Only the last
//                        group may hold fewer rows.
//
// The group/columnar layout is what makes the store out-of-core: the
// bound-aware top-k scan walks a group dimension by dimension and stops
// touching its remaining blocks once every row is pruned, so most
// later-dimension pages are never faulted in (docs/storage.md).

inline constexpr char kShardMagic[8] = {'H', 'A', 'L', 'K',
                                        'S', 'H', 'R', 'D'};
inline constexpr uint32_t kShardFormatVersion = 1;
inline constexpr uint32_t kDtypeF32 = 1;
inline constexpr uint32_t kDefaultRowsPerGroup = 4096;
inline constexpr uint64_t kPageBytes = 4096;

/// Parsed shard-file header. Field order matches the serialized layout.
struct ShardFileHeader {
  uint32_t version = kShardFormatVersion;
  uint32_t dtype = kDtypeF32;
  uint32_t dim = 0;
  uint32_t rows_per_group = kDefaultRowsPerGroup;
  int64_t entity_begin = 0;          // global ids [entity_begin, entity_end)
  int64_t entity_end = 0;
  uint64_t page_bytes = kPageBytes;
  uint64_t num_groups = 0;
  uint64_t checksum_table_offset = 0;
  uint64_t data_offset = 0;
  uint64_t data_bytes = 0;
  uint64_t table_checksum = 0;       // FNV over the checksum table bytes
  uint64_t header_checksum = 0;      // FNV over the serialized bytes above

  int64_t rows() const { return entity_end - entity_begin; }
};

/// Serialized header size before zero padding (magic through
/// header_checksum); the header occupies the first kPageBytes of the file.
inline constexpr uint64_t kHeaderBytes = 96;

inline constexpr uint64_t AlignUp(uint64_t n, uint64_t alignment) {
  return (n + alignment - 1) / alignment * alignment;
}

/// Renders `header` into `out` (which must hold kPageBytes), computing and
/// embedding header_checksum; bytes past kHeaderBytes are zeroed.
void SerializeHeader(const ShardFileHeader& header, uint8_t* out);

/// Strict parse of a shard-file header from the first `n` bytes of a file.
/// Validates magic, version, dtype, checksum, and full internal geometry
/// (group count, offsets, data size) with bounded arithmetic, so it is safe
/// on adversarial input — this is the fuzzed surface. Does not check `n`
/// against data_offset + data_bytes; the caller compares the file size.
[[nodiscard]] Status ParseHeader(const uint8_t* data, size_t n,
                                 ShardFileHeader* out);

/// Geometry helpers shared by the writer and the mapped reader. `group` is
/// an index in [0, num_groups); only the last group may be partial.
int64_t GroupRowCount(const ShardFileHeader& header, int64_t group);
/// Bytes of one padded column block of `group`.
uint64_t GroupBlockBytes(const ShardFileHeader& header, int64_t group);
/// File offset of column block (group, dim_index).
uint64_t BlockOffset(const ShardFileHeader& header, int64_t group,
                     int64_t dim_index);
/// Total bytes of all column blocks (== header.data_bytes when valid).
uint64_t TotalDataBytes(const ShardFileHeader& header);

}  // namespace halk::store

#endif  // HALK_STORE_FORMAT_H_
