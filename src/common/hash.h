#ifndef HALK_COMMON_HASH_H_
#define HALK_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace halk {

/// FNV-1a 64-bit offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `n` bytes at `data`, continuing from `seed`. Rolling:
/// hashing a buffer in pieces, each piece seeded with the previous result,
/// equals hashing it whole — what the checkpoint and params-blob streams
/// rely on. The one implementation behind every persisted checksum (store
/// files, snapshot manifests, checkpoints) and the journal's options
/// fingerprint.
inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t seed = kFnv1a64Seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a64(text.data(), text.size());
}

}  // namespace halk

#endif  // HALK_COMMON_HASH_H_
