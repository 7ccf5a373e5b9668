// Property tests of the store's two-pass column scan against the exact
// in-RAM oracles: MappedShardFile::Scan under every prefilter variant the
// host runs, and store-backed serving models over random snapshots.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/column_scan.h"
#include "core/distance.h"
#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "shard/coordinator.h"
#include "store/convert.h"
#include "store/shard_file.h"
#include "store/store.h"
#include "store/writer.h"

namespace halk::store {
namespace {

constexpr float kPi = 3.14159265358979f;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

class StoreScanKernelTest : public ::testing::TestWithParam<size_t> {
 protected:
  const core::ScanKernel& kernel() const {
    return core::SupportedScanKernels()[GetParam()];
  }
};

// Random shard files — group sizes that are and are not multiples of the
// prefilter sub-block, duplicated rows, 1-3 arcs, η = 0 — scanned over
// random sub-ranges under each variant, against pushing every entity's
// exact distance.
TEST_P(StoreScanKernelTest, RandomFilesMatchExactPushes) {
  Rng rng(41 + GetParam());
  const uint32_t dim = 10;
  const int64_t begin = 500;
  const int64_t end = 1700;
  for (const uint32_t rows_per_group : {1u, 50u, 128u, 300u, 4096u}) {
    // Per variant: ctest runs the variants in parallel processes.
    const std::string path =
        TempPath(std::string("scan_property_") + kernel().name + "_" +
                 std::to_string(rows_per_group) + ".halkstore");
    std::vector<float> table(static_cast<size_t>((end - begin) * dim));
    for (int64_t r = 0; r < end - begin; ++r) {
      for (uint32_t j = 0; j < dim; ++j) {
        const size_t cell = static_cast<size_t>(r * dim + j);
        table[cell] = r >= 3 && r % 7 == 0
                          ? table[static_cast<size_t>((r - 3) * dim + j)]
                          : static_cast<float>(rng.Uniform(0.0, 2.0 * kPi));
      }
    }
    {
      ShardFileWriter writer(path, dim, begin, end, rows_per_group);
      ASSERT_TRUE(writer.Append(table.data(), end - begin).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    auto opened = MappedShardFile::Open(path, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();

    for (int trial = 0; trial < 6; ++trial) {
      const int num_arcs = 1 + trial % 3;
      const float eta = trial % 2 == 0 ? 0.0f : 0.4f;
      std::vector<core::ArcConstants> arcs;
      std::vector<std::vector<float>> centers;
      std::vector<std::vector<float>> lengths;
      for (int b = 0; b < num_arcs; ++b) {
        centers.emplace_back(dim);
        lengths.emplace_back(dim);
        for (uint32_t j = 0; j < dim; ++j) {
          centers.back()[j] = static_cast<float>(rng.Uniform(0.0, 2.0 * kPi));
          lengths.back()[j] = static_cast<float>(rng.Uniform(0.0, 2.0 * kPi));
        }
        arcs.push_back(core::MakeArcConstants(centers.back().data(),
                                              lengths.back().data(), dim,
                                              1.0f, eta));
      }
      // A range that starts and ends inside groups, plus the whole file.
      const int64_t lo = trial == 0 ? 0 : begin + 37 * trial;
      const int64_t hi = trial == 0 ? end + 10 : end - 11 * trial;
      for (const int64_t k : {int64_t{1}, int64_t{10}, end - begin + 1}) {
        core::TopKAccumulator scanned(k);
        core::ScanStats stats;
        (*opened)->Scan(arcs, lo, hi, &scanned, &stats, kernel());
        core::TopKAccumulator expected(k);
        std::vector<float> row(dim);
        for (int64_t e = std::max(lo, begin); e < std::min(hi, end); ++e) {
          (*opened)->CopyRow(e, row.data());
          float best = std::numeric_limits<float>::infinity();
          for (int b = 0; b < num_arcs; ++b) {
            best = std::min(best, core::ArcPointDistance(
                                      row.data(), centers[b].data(),
                                      lengths[b].data(), dim, 1.0f, eta));
          }
          expected.Push(e, best);
        }
        ASSERT_EQ(scanned.Take(), expected.Take())
            << "rows_per_group=" << rows_per_group << " trial=" << trial
            << " k=" << k;
        EXPECT_EQ(stats.entities_scanned,
                  std::min(hi, end) - std::max(lo, begin));
      }
    }
    opened->reset();
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StoreScanKernelTest,
    ::testing::Range<size_t>(0, core::SupportedScanKernels().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(core::SupportedScanKernels()[info.param].name);
    });

// Random models snapshotted with assorted row-group sizes: the
// store-backed model's sharded ranking (the columnar scan) equals the
// in-RAM Evaluator's ranking, distances included, bit for bit.
TEST(StoreScanSnapshotTest, RandomSnapshotsRankLikeTheEvaluator) {
  kg::SyntheticKgOptions opt;
  opt.num_entities = 700;
  opt.num_relations = 5;
  opt.num_triples = 3000;
  opt.seed = 29;
  const kg::Dataset dataset = kg::GenerateSyntheticKg(opt);
  int run = 0;
  for (const uint32_t rows_per_group : {64u, 200u, 4096u}) {
    for (const float eta : {0.0f, 0.3f}) {
      core::ModelConfig config;
      config.num_entities = dataset.train.num_entities();
      config.num_relations = dataset.train.num_relations();
      config.dim = 12;
      config.hidden = 16;
      config.eta = eta;
      config.seed = 100 + run;
      core::HalkModel model(config, nullptr);

      const std::string dir = TempPath("scan_snapshot_" + std::to_string(run));
      ++run;
      SnapshotWriterOptions options;
      options.dir = dir;
      options.config = model.config();
      options.num_shards = 2;
      options.rows_per_group = rows_per_group;
      auto writer = SnapshotWriter::Create(options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE((*writer)
                      ->AppendEntityRows(model.entity_angles().data(),
                                         config.num_entities)
                      .ok());
      const std::vector<tensor::Tensor> params = model.Parameters();
      std::vector<core::TensorView> views;
      for (size_t i = 1; i < params.size(); ++i) {
        views.push_back(
            {params[i].data(), static_cast<size_t>(params[i].numel())});
      }
      ASSERT_TRUE((*writer)->SetParams(std::move(views)).ok());
      ASSERT_TRUE((*writer)->Finish().ok());
      auto store = EmbeddingStore::Open(dir, {});
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto served = OpenServingModel(**store, nullptr);
      ASSERT_TRUE(served.ok()) << served.status().ToString();

      core::Evaluator oracle(&model);
      query::QuerySampler sampler(&dataset.train, 7 + run);
      for (const int shards : {1, 3}) {
        shard::ShardOptions shard_options;
        shard_options.num_shards = shards;
        shard::ShardCoordinator coordinator(served->get(), shard_options);
        for (const query::StructureId s :
             {query::StructureId::k1p, query::StructureId::k2i,
              query::StructureId::k2u, query::StructureId::kUp}) {
          auto queries = sampler.SampleMany(s, 2);
          ASSERT_TRUE(queries.ok());
          for (const query::GroundedQuery& q : *queries) {
            const std::vector<float> dist = oracle.ScoreAllEntities(q.graph);
            for (const int64_t k : {int64_t{1}, int64_t{10},
                                    config.num_entities + 3}) {
              shard::ShardedTopK top = coordinator.TopK(q.graph, k);
              ASSERT_TRUE(top.ok()) << top.status.ToString();
              ASSERT_EQ(top.entries, core::TopKFromDistances(dist, k))
                  << query::StructureName(s) << " shards=" << shards
                  << " k=" << k << " rows_per_group=" << rows_per_group;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace halk::store
