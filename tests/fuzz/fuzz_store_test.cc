#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/checkpoint.h"
#include "fuzz/fuzz_harness.h"
#include "store/format.h"
#include "store/snapshot.h"

// This binary replaces the global operator new/delete pair (malloc/free
// underneath) to watch allocation sizes; GCC's mismatch warning cannot see
// that the replacement pairs them.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

// Largest single operator-new request made while `g_track_allocations` is
// set: the blob-codec case checks that no input makes the decoder size an
// allocation beyond the input itself.
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t n) {
  // order: single-threaded test bookkeeping; relaxed is enough.
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }

namespace halk::store {
namespace {

/// Adversarial-input suite for the two store parsing surfaces: the text
/// manifest and the binary shard-file header. Both are documented as safe
/// on arbitrary bytes (clean Status, no crash, no OOB) — the property the
/// sanitizer CI jobs check here.

StoreSnapshot SampleSnapshot(int64_t num_entities, int shards,
                             bool with_params) {
  StoreSnapshot snap;
  snap.model_name = "HaLk";
  snap.config.num_entities = num_entities;
  snap.config.num_relations = 11;
  snap.config.dim = 16;
  snap.config.hidden = 32;
  snap.config.seed = 77;
  snap.has_params = with_params;
  snap.params_checksum = with_params ? 0xabcdef0123456789ULL : 0;
  const int64_t per = num_entities / shards;
  for (int i = 0; i < shards; ++i) {
    SnapshotShardEntry entry;
    entry.file = "entities-" + std::to_string(i) + ".halkstore";
    entry.entity_begin = i * per;
    entry.entity_end = (i == shards - 1) ? num_entities : (i + 1) * per;
    entry.header_checksum = 0x1000 + static_cast<uint64_t>(i);
    snap.shards.push_back(entry);
  }
  return snap;
}

TEST(FuzzStoreTest, ManifestParserNeverCrashesAndAcceptsOnlyRoundTrips) {
  const std::vector<std::string> corpus = {
      SerializeManifest(SampleSnapshot(100, 1, false)),
      SerializeManifest(SampleSnapshot(1000, 4, true)),
      SerializeManifest(SampleSnapshot(7, 7, true)),
  };
  const std::vector<std::string> tokens = {
      "halk-store-snapshot", "model", "num_entities", "num_relations",
      "dim", "hidden", "rho", "lambda", "eta", "gamma", "xi", "seed",
      "params", "params.halkblob", "shard", "checksum", "0x",
      ".halkstore", "HaLk", "\n", " 0 ", "-1", "18446744073709551615",
      "1e9999", "nan", "inf", "../", "/",
  };
  fuzz::RunCorpus(
      corpus, tokens, /*seed=*/20260809, /*iterations=*/3000,
      [](const std::string& input, const std::string& tag) {
        StoreSnapshot parsed;
        const Status status = ParseManifest(input, &parsed);
        if (!status.ok()) return;
        // Anything the strict parser accepts must serialize back to the
        // exact input — the manifest grammar has one canonical rendering.
        EXPECT_EQ(SerializeManifest(parsed), input) << tag;
        // And the accepted snapshot satisfies the parser's own contract.
        ASSERT_FALSE(parsed.shards.empty()) << tag;
        int64_t next = 0;
        for (const SnapshotShardEntry& entry : parsed.shards) {
          EXPECT_EQ(entry.entity_begin, next) << tag;
          EXPECT_LT(entry.entity_begin, entry.entity_end) << tag;
          next = entry.entity_end;
        }
        EXPECT_EQ(next, parsed.config.num_entities) << tag;
      });
}

TEST(FuzzStoreTest, HeaderParserNeverCrashesAndAcceptsOnlyValidGeometry) {
  // Corpus: serialized valid headers of varied geometry (partial tail
  // groups, single group, begin offsets) as raw byte strings.
  std::vector<std::string> corpus;
  for (const auto& [dim, rows_per_group, begin, end] :
       std::vector<std::tuple<uint32_t, uint32_t, int64_t, int64_t>>{
           {8, 64, 0, 1000}, {4, 16, 100, 116}, {32, 4096, 0, 1}}) {
    ShardFileHeader h;
    h.dim = dim;
    h.rows_per_group = rows_per_group;
    h.entity_begin = begin;
    h.entity_end = end;
    h.num_groups = static_cast<uint64_t>(
        (h.rows() + rows_per_group - 1) / rows_per_group);
    h.checksum_table_offset = kPageBytes;
    h.data_offset = AlignUp(
        kPageBytes + h.num_groups * dim * sizeof(uint64_t), kPageBytes);
    h.data_bytes = TotalDataBytes(h);
    std::string page(kPageBytes, '\0');
    SerializeHeader(h, reinterpret_cast<uint8_t*>(page.data()));
    corpus.push_back(page);
  }
  // Every corpus entry must parse before mutation.
  for (const std::string& page : corpus) {
    ShardFileHeader out;
    ASSERT_TRUE(ParseHeader(reinterpret_cast<const uint8_t*>(page.data()),
                            page.size(), &out)
                    .ok());
  }
  const std::vector<std::string> tokens = {
      std::string("HALKSHRD"), std::string(8, '\xff'), std::string(8, '\0')};
  fuzz::RunCorpus(
      corpus, tokens, /*seed=*/977, /*iterations=*/3000,
      [](const std::string& input, const std::string& tag) {
        ShardFileHeader out;
        const Status status = ParseHeader(
            reinterpret_cast<const uint8_t*>(input.data()), input.size(),
            &out);
        if (!status.ok()) return;
        // Accepted headers carry self-consistent, bounded geometry: every
        // derived quantity the reader trusts re-derives without overflow.
        EXPECT_GT(out.dim, 0u) << tag;
        EXPECT_LT(out.entity_begin, out.entity_end) << tag;
        EXPECT_EQ(out.data_bytes, TotalDataBytes(out)) << tag;
        int64_t rows = 0;
        for (uint64_t g = 0; g < out.num_groups; ++g) {
          rows += GroupRowCount(out, static_cast<int64_t>(g));
        }
        EXPECT_EQ(rows, out.rows()) << tag;
      });
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Rewrites the trailing checksum so a mutant gets past it and reaches the
/// size and structure checks behind it.
std::string Reseal(std::string bytes) {
  if (bytes.size() < sizeof(uint64_t)) return bytes;
  const size_t body = bytes.size() - sizeof(uint64_t);
  const uint64_t h = Fnv1a64(bytes.data(), body);
  bytes.replace(body, sizeof(h), reinterpret_cast<const char*>(&h), sizeof(h));
  return bytes;
}

TEST(FuzzStoreTest, BlobCodecNeverCrashesOverAllocatesOrMisencodes) {
  const std::string dir = testing::TempDir();
  const std::string in_path = dir + "/fuzz_blob_in";
  const std::string out_path = dir + "/fuzz_blob_out";
  // Corpus: valid blobs of both magics with varied names and tensor
  // shapes, including empty tensors and an empty tensor list.
  core::ModelConfig config;
  config.num_entities = 5;
  config.num_relations = 2;
  config.dim = 3;
  config.hidden = 4;
  const std::vector<float> floats = {0.5f, -1.25f, 3.0f, 1e-7f, -0.0f,
                                     2.5f, 7.0f,   -9.5f};
  const std::vector<std::vector<core::TensorView>> shapes = {
      {{floats.data(), 8}, {floats.data(), 3}},
      {{floats.data(), 0}, {floats.data() + 2, 5}, {floats.data(), 1}},
      {},
  };
  std::vector<std::string> corpus;
  for (const auto* magic : {&core::kCheckpointMagic, &core::kParamsBlobMagic}) {
    for (size_t i = 0; i < shapes.size(); ++i) {
      ASSERT_TRUE(core::WriteTensorBlob(in_path, *magic,
                                        i == 0 ? "HaLk" : "q2b", config,
                                        shapes[i])
                      .ok());
      corpus.push_back(ReadBytes(in_path));
    }
  }
  const std::vector<std::string> tokens = {
      std::string(core::kCheckpointMagic, 8),
      std::string(core::kParamsBlobMagic, 8), std::string(8, '\xff'),
      std::string(8, '\0'), std::string("\x01\0\0\0", 4)};

  auto check = [&](const std::string& input, const std::string& tag) {
    WriteBytes(in_path, input);
    for (const auto* magic :
         {&core::kCheckpointMagic, &core::kParamsBlobMagic}) {
      core::TensorBlob blob;
      // order: single-threaded; see operator new above.
      g_largest_allocation.store(0, std::memory_order_relaxed);
      g_track_allocations.store(true, std::memory_order_relaxed);
      const Status status = core::ReadTensorBlob(in_path, *magic, &blob);
      g_track_allocations.store(false, std::memory_order_relaxed);
      // Error messages name the path; everything else is bounded by the
      // input.
      EXPECT_LE(g_largest_allocation.load(std::memory_order_relaxed),
                input.size() + in_path.size() + 256)
          << tag;
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kParseError) << tag;
        continue;
      }
      std::vector<core::TensorView> views;
      for (size_t t = 0; t < blob.num_tensors(); ++t) {
        views.push_back(blob.tensor(t));
      }
      Result<uint64_t> written = core::WriteTensorBlob(
          out_path, *magic, blob.model_name, blob.config, views);
      ASSERT_TRUE(written.ok()) << tag;
      EXPECT_EQ(*written, blob.checksum) << tag;
      EXPECT_EQ(ReadBytes(out_path), input) << tag;
    }
  };
  fuzz::RunCorpus(corpus, tokens, /*seed=*/1414, /*iterations=*/1500,
                  [&](const std::string& input, const std::string& tag) {
                    check(input, tag);
                    check(Reseal(input), tag + " resealed");
                  });
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace halk::store
