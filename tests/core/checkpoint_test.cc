#include "core/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

#include "baselines/factory.h"
#include "core/evaluator.h"
#include "core/halk_model.h"
#include "kg/synthetic.h"
#include "query/sampler.h"

namespace halk::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 120;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 31;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static ModelConfig SmallConfig(uint64_t seed = 3) {
    ModelConfig c;
    c.num_entities = dataset_->train.num_entities();
    c.num_relations = dataset_->train.num_relations();
    c.dim = 8;
    c.hidden = 16;
    c.seed = seed;
    return c;
  }

  std::string TempPath(const char* name) {
    return testing::TempDir() + "/" + name;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// A checkpoint header (empty model name, default config) followed by
  /// `count`, then `numels` as the first tensor sizes, and a few payload
  /// bytes: a file of about a hundred bytes whose size fields claim far
  /// more than it holds.
  static std::string ForgedBlob(uint64_t count,
                                const std::vector<uint64_t>& numels) {
    std::string bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
    auto put = [&bytes](const auto& v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{1});  // version
    put(uint32_t{0});  // name length
    const ModelConfig c;
    put(c.num_entities);
    put(c.num_relations);
    put(c.dim);
    put(c.hidden);
    put(c.rho);
    put(c.lambda);
    put(c.eta);
    put(c.gamma);
    put(c.xi);
    put(c.seed);
    put(count);
    for (const uint64_t numel : numels) put(numel);
    put(1.0f);
    put(2.0f);
    put(Fnv1a64(bytes.data(), bytes.size()));
    return bytes;
  }

  static kg::Dataset* dataset_;
};

kg::Dataset* CheckpointTest::dataset_ = nullptr;

TEST_F(CheckpointTest, RoundTripRestoresEveryParameter) {
  HalkModel a(SmallConfig(3), nullptr);
  const std::string path = TempPath("halk_ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());

  HalkModel b(SmallConfig(99), nullptr);  // different random init
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t t = 0; t < pa.size(); ++t) {
    for (int64_t i = 0; i < pa[t].numel(); ++i) {
      ASSERT_EQ(pa[t].at(i), pb[t].at(i)) << "tensor " << t;
    }
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RestoredModelProducesIdenticalEmbeddings) {
  HalkModel a(SmallConfig(3), nullptr);
  const std::string path = TempPath("halk_ckpt_embed.bin");
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  HalkModel b(SmallConfig(77), nullptr);
  ASSERT_TRUE(LoadCheckpoint(&b, path).ok());

  query::QuerySampler sampler(&dataset_->train, 5);
  auto q = sampler.Sample(query::StructureId::k2i);
  ASSERT_TRUE(q.ok());
  std::vector<const query::QueryGraph*> batch = {&q->graph};
  EmbeddingBatch ea = a.EmbedQueries(batch);
  EmbeddingBatch eb = b.EmbedQueries(batch);
  for (int64_t i = 0; i < ea.a.numel(); ++i) {
    EXPECT_EQ(ea.a.at(i), eb.a.at(i));
    EXPECT_EQ(ea.b.at(i), eb.b.at(i));
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RejectsWrongModelName) {
  HalkModel halk(SmallConfig(), nullptr);
  const std::string path = TempPath("halk_ckpt_name.bin");
  ASSERT_TRUE(SaveCheckpoint(halk, path).ok());
  auto cone = baselines::CreateModel("cone", SmallConfig(), nullptr);
  ASSERT_TRUE(cone.ok());
  Status s = LoadCheckpoint(cone->get(), path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, RejectsMismatchedConfig) {
  HalkModel a(SmallConfig(), nullptr);
  const std::string path = TempPath("halk_ckpt_config.bin");
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  ModelConfig other = SmallConfig();
  other.dim = 16;  // different architecture
  HalkModel b(other, nullptr);
  Status s = LoadCheckpoint(&b, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, DetectsCorruption) {
  HalkModel a(SmallConfig(), nullptr);
  const std::string path = TempPath("halk_ckpt_corrupt.bin");
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  {
    // Flip a byte in the middle of the tensor payload.
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 400, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 400, SEEK_SET);
    fputc(c ^ 0x40, f);
    fclose(f);
  }
  HalkModel b(SmallConfig(8), nullptr);
  Status s = LoadCheckpoint(&b, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, FailedSaveKeepsThePreviousCheckpoint) {
  HalkModel a(SmallConfig(3), nullptr);
  const std::string path = TempPath("halk_ckpt_durable.bin");
  const std::string tmp = path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  const std::string before = Slurp(path);

  // A directory squatting on the tmp name makes the next save fail.
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  HalkModel b(SmallConfig(4), nullptr);
  EXPECT_EQ(SaveCheckpoint(b, path).code(), StatusCode::kIOError);
  EXPECT_EQ(Slurp(path), before);
  HalkModel restored(SmallConfig(5), nullptr);
  ASSERT_TRUE(LoadCheckpoint(&restored, path).ok());
  EXPECT_EQ(restored.Parameters()[0].at(0), a.Parameters()[0].at(0));

  // Once the obstacle is gone the save replaces the file whole.
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
  ASSERT_TRUE(SaveCheckpoint(b, path).ok());
  EXPECT_NE(Slurp(path), before);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, SizeFieldsBeyondTheFileAreParseErrors) {
  const std::string path = TempPath("halk_ckpt_forged.bin");
  TensorBlob blob;
  // One tensor claiming 2^30 floats (4 GiB) in a file of ~100 bytes.
  WriteBytes(path, ForgedBlob(1, {uint64_t{1} << 30}));
  EXPECT_EQ(ReadTensorBlob(path, kCheckpointMagic, &blob).code(),
            StatusCode::kParseError);
  // A tensor count that cannot fit either, and one that overflows.
  WriteBytes(path, ForgedBlob(uint64_t{1} << 40, {}));
  EXPECT_EQ(ReadTensorBlob(path, kCheckpointMagic, &blob).code(),
            StatusCode::kParseError);
  WriteBytes(path, ForgedBlob(~uint64_t{0}, {}));
  EXPECT_EQ(ReadTensorBlob(path, kCheckpointMagic, &blob).code(),
            StatusCode::kParseError);
  HalkModel model(SmallConfig(), nullptr);
  WriteBytes(path, ForgedBlob(1, {uint64_t{1} << 30}));
  EXPECT_EQ(LoadCheckpoint(&model, path).code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ForgedBlobWithHonestSizesDecodes) {
  // The forging helper itself writes a valid blob when its sizes are true,
  // so the rejections above are down to the size fields alone.
  const std::string path = TempPath("halk_ckpt_honest.bin");
  WriteBytes(path, ForgedBlob(1, {2}));
  TensorBlob blob;
  ASSERT_TRUE(ReadTensorBlob(path, kCheckpointMagic, &blob).ok());
  ASSERT_EQ(blob.num_tensors(), 1u);
  EXPECT_EQ(blob.tensor(0).numel, 2u);
  EXPECT_EQ(blob.tensor(0).data[1], 2.0f);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TrailingBytesAndTheOtherMagicAreRejected) {
  HalkModel a(SmallConfig(), nullptr);
  const std::string path = TempPath("halk_ckpt_trailing.bin");
  ASSERT_TRUE(SaveCheckpoint(a, path).ok());
  TensorBlob blob;
  EXPECT_EQ(ReadTensorBlob(path, kParamsBlobMagic, &blob).code(),
            StatusCode::kParseError);
  WriteBytes(path, Slurp(path) + "x");
  EXPECT_EQ(ReadTensorBlob(path, kCheckpointMagic, &blob).code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, MissingFileIsIOError) {
  HalkModel a(SmallConfig(), nullptr);
  EXPECT_EQ(LoadCheckpoint(&a, "/nonexistent/ckpt.bin").code(),
            StatusCode::kIOError);
}

TEST_F(CheckpointTest, WorksForEveryFactoryModel) {
  for (const std::string& name : baselines::AvailableModels()) {
    auto a = baselines::CreateModel(name, SmallConfig(4), nullptr);
    ASSERT_TRUE(a.ok());
    const std::string path = TempPath(("ckpt_" + name + ".bin").c_str());
    ASSERT_TRUE(SaveCheckpoint(**a, path).ok()) << name;
    auto b = baselines::CreateModel(name, SmallConfig(5), nullptr);
    ASSERT_TRUE(LoadCheckpoint(b->get(), path).ok()) << name;
    std::remove(path.c_str());
  }
}

// Mirrors the halk_cli serving path: a trained-and-saved model, restored
// through the factory into a fresh instance, must rank identically.
TEST_F(CheckpointTest, RestoredFactoryModelRanksIdentically) {
  auto trained = baselines::CreateModel("halk", SmallConfig(6), nullptr);
  ASSERT_TRUE(trained.ok());
  const std::string path = TempPath("halk_ckpt_topk.bin");
  ASSERT_TRUE(SaveCheckpoint(**trained, path).ok());

  auto restored = baselines::CreateModel("halk", SmallConfig(123), nullptr);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(LoadCheckpoint(restored->get(), path).ok());

  Evaluator before(trained->get());
  Evaluator after(restored->get());
  query::QuerySampler sampler(&dataset_->train, 9);
  for (query::StructureId s :
       {query::StructureId::k1p, query::StructureId::k2i,
        query::StructureId::k2u}) {
    auto queries = sampler.SampleMany(s, 3);
    ASSERT_TRUE(queries.ok());
    for (const query::GroundedQuery& q : *queries) {
      EXPECT_EQ(before.TopK(q.graph, 10), after.TopK(q.graph, 10));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace halk::core
