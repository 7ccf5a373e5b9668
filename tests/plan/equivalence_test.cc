// Randomized planner-equivalence suite: the served planner path must be
// *bit*-identical to per-branch Evaluator::TopK — same entities, same
// float distances — across every query structure, for duplicate-subtree
// micro-batches, and on subtree-cache-warm as well as cold runs. Every
// comparison below is exact (EXPECT_EQ on float vectors).
#include <cstdint>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/halk_model.h"
#include "core/topk.h"
#include "kg/groups.h"
#include "kg/synthetic.h"
#include "query/sampler.h"
#include "query/structures.h"
#include "serving/server.h"

namespace halk::serving {
namespace {

using query::StructureId;

class PlannerEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kg::SyntheticKgOptions opt;
    opt.num_entities = 150;
    opt.num_relations = 6;
    opt.num_triples = 900;
    opt.seed = 47;
    dataset_ = new kg::Dataset(kg::GenerateSyntheticKg(opt));
    Rng rng(9);
    grouping_ = new kg::NodeGrouping(
        kg::NodeGrouping::Random(dataset_->train.num_entities(), 8, &rng));
    grouping_->BuildAdjacency(dataset_->train);
    core::ModelConfig config;
    config.num_entities = dataset_->train.num_entities();
    config.num_relations = dataset_->train.num_relations();
    config.dim = 8;
    config.hidden = 16;
    config.seed = 3;
    model_ = new core::HalkModel(config, grouping_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete grouping_;
    delete dataset_;
    model_ = nullptr;
    grouping_ = nullptr;
    dataset_ = nullptr;
  }

  /// Reference ranking straight off the evaluator's exhaustive scores.
  static std::vector<core::ScoredEntity> Reference(
      const query::QueryGraph& query, int64_t k) {
    core::Evaluator evaluator(model_);
    return core::TopKFromDistances(evaluator.ScoreAllEntities(query), k);
  }

  static void ExpectBitIdentical(const TopKAnswer& served,
                                 const query::QueryGraph& query, int64_t k) {
    const std::vector<core::ScoredEntity> expected = Reference(query, k);
    ASSERT_EQ(served.entities.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(served.entities[i], expected[i].entity) << "rank " << i;
      EXPECT_EQ(served.distances[i], expected[i].distance) << "rank " << i;
    }
  }

  static kg::Dataset* dataset_;
  static kg::NodeGrouping* grouping_;
  static core::HalkModel* model_;
};

kg::Dataset* PlannerEquivalenceTest::dataset_ = nullptr;
kg::NodeGrouping* PlannerEquivalenceTest::grouping_ = nullptr;
core::HalkModel* PlannerEquivalenceTest::model_ = nullptr;

TEST_F(PlannerEquivalenceTest, BitIdenticalToEvaluatorAcrossAllStructures) {
  ServerOptions options;
  options.num_workers = 2;
  options.enable_cache = false;  // force the planner path on every answer
  QueryServer server(model_, &dataset_->train, options);
  core::Evaluator evaluator(model_);
  query::QuerySampler sampler(&dataset_->train, 61);
  for (StructureId s : query::AllStructures()) {
    auto queries = sampler.SampleMany(s, 3);
    ASSERT_TRUE(queries.ok()) << query::StructureName(s);
    for (const query::GroundedQuery& q : *queries) {
      Result<TopKAnswer> served = server.Answer(q.graph, 10);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->entities, evaluator.TopK(q.graph, 10))
          << query::StructureName(s);
      ExpectBitIdentical(*served, q.graph, 10);
    }
  }
  EXPECT_GT(server.metrics()->CounterValue("plan.requests"), 0);
}

TEST_F(PlannerEquivalenceTest, ServedPathAgreesWithEvaluatorBitExactly) {
  // A second sample at a k that is not the suite's default, checked
  // against the oracle directly: Evaluator::TopK for the entities and the
  // evaluator's exhaustive scores for the exact float distances.
  ServerOptions options;
  options.num_workers = 2;
  options.enable_cache = false;
  QueryServer server(model_, &dataset_->train, options);
  core::Evaluator evaluator(model_);
  query::QuerySampler sampler(&dataset_->train, 67);
  for (StructureId s : query::AllStructures()) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok()) << query::StructureName(s);
    Result<TopKAnswer> served = server.Answer(q->graph, 12);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->entities, evaluator.TopK(q->graph, 12))
        << query::StructureName(s);
    ExpectBitIdentical(*served, q->graph, 12);
  }
  // Every unsharded answer came out of the bound-aware scan.
  EXPECT_EQ(server.metrics()->CounterValue("scan.entities_scanned"),
            static_cast<int64_t>(query::AllStructures().size()) *
                dataset_->train.num_entities());
}

TEST_F(PlannerEquivalenceTest, DuplicateSubtreeBatchesStayBitIdentical) {
  // A micro-batch hand-built from a shared subtree library: every query
  // extends the same 1p/2p prefixes, so the planner merges aggressively
  // across requests — and each answer must still match its own solo
  // evaluation.
  ServerOptions options;
  options.num_workers = 1;  // one worker => whole batch in one chunk
  options.max_batch_size = 16;
  options.batch_linger = std::chrono::microseconds(20000);
  options.enable_cache = false;
  QueryServer server(model_, &dataset_->train, options);

  std::vector<query::QueryGraph> queries;
  for (int64_t tail_relation = 0; tail_relation < 4; ++tail_relation) {
    // p(p(a7, r2), tail) — all four share the inner hop.
    query::QueryGraph g;
    g.SetTarget(g.AddProjection(
        g.AddProjection(g.AddAnchor(7), 2), tail_relation));
    queries.push_back(g);
    // i(p(a7, r2), p(a9, tail)) — intersections sharing the same hop.
    query::QueryGraph h;
    int shared = h.AddProjection(h.AddAnchor(7), 2);
    int other = h.AddProjection(h.AddAnchor(9), tail_relation);
    h.SetTarget(h.AddIntersection({shared, other}));
    queries.push_back(h);
  }
  // Exact duplicates in the same batch.
  queries.push_back(queries[0]);
  queries.push_back(queries[1]);

  std::vector<std::future<Result<TopKAnswer>>> futures;
  for (const query::QueryGraph& g : queries) {
    auto submitted = server.Submit(g, 10);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKAnswer> served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(*served, queries[i], 10);
  }
  // The shared prefix must actually have been merged.
  const int64_t total = server.metrics()->CounterValue("plan.nodes");
  const int64_t unique =
      server.metrics()->CounterValue("plan.unique_nodes");
  EXPECT_LT(unique, total);
}

TEST_F(PlannerEquivalenceTest, CacheWarmRunsMatchColdRuns) {
  ServerOptions options;
  options.num_workers = 1;
  options.enable_cache = false;  // isolate the *subtree* cache
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.subtree_cache(), nullptr);
  query::QuerySampler sampler(&dataset_->train, 71);

  std::vector<query::GroundedQuery> queries;
  for (StructureId s : {StructureId::k2p, StructureId::k2i,
                        StructureId::kPip, StructureId::k2ipp}) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }

  std::vector<TopKAnswer> cold;
  for (const query::GroundedQuery& q : queries) {
    Result<TopKAnswer> served = server.Answer(q.graph, 10);
    ASSERT_TRUE(served.ok());
    cold.push_back(*served);
  }
  EXPECT_GT(server.subtree_cache()->size(), 0u);

  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKAnswer> warm = server.Answer(queries[i].graph, 10);
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(warm->from_cache);  // answer cache is off
    EXPECT_EQ(warm->entities, cold[i].entities);
    EXPECT_EQ(warm->distances, cold[i].distances);
    ExpectBitIdentical(*warm, queries[i].graph, 10);
  }
  EXPECT_GT(server.metrics()->CounterValue("plan.subtree_cache_hits"), 0);

  // Invalidation keeps answers bit-identical, just slower.
  for (int64_t r = 0; r < dataset_->train.num_relations(); ++r) {
    server.subtree_cache()->InvalidateRelation(r);
  }
  EXPECT_EQ(server.subtree_cache()->size(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKAnswer> again = server.Answer(queries[i].graph, 10);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->entities, cold[i].entities);
    EXPECT_EQ(again->distances, cold[i].distances);
  }
}

TEST_F(PlannerEquivalenceTest, ShardedPlannerPathMatchesEvaluator) {
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 3;
  options.enable_cache = false;
  QueryServer server(model_, &dataset_->train, options);
  query::QuerySampler sampler(&dataset_->train, 83);
  for (StructureId s : {StructureId::k2p, StructureId::k2u,
                        StructureId::k2in, StructureId::k3ipp}) {
    auto q = sampler.Sample(s);
    ASSERT_TRUE(q.ok());
    Result<TopKAnswer> served = server.Answer(q->graph, 10);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->coverage, 1.0);
    ExpectBitIdentical(*served, q->graph, 10);
  }
}

TEST_F(PlannerEquivalenceTest, FeedbackKeepsAnswersBitIdentical) {
  // Cardinality feedback may only reorder evaluation *within* a depth
  // level; rankings must stay bit-identical to the evaluator. The same
  // workload runs twice — the first pass populates the stats store with
  // sampled actuals, the second plans with EWMA-overridden sched_rows —
  // and both passes are checked exactly.
  ServerOptions options;
  options.num_workers = 2;
  options.enable_cache = false;  // force the planner path on every answer
  options.use_feedback = true;
  options.feedback_min_samples = 1;  // every repeat consults the store
  QueryServer server(model_, &dataset_->train, options);
  ASSERT_NE(server.query_stats(), nullptr);
  for (int pass = 0; pass < 2; ++pass) {
    // Re-seeded per pass so both passes serve the *same* queries.
    query::QuerySampler replay(&dataset_->train, 97);
    for (StructureId s : query::AllStructures()) {
      auto queries = replay.SampleMany(s, 2);
      ASSERT_TRUE(queries.ok()) << query::StructureName(s);
      for (const query::GroundedQuery& q : *queries) {
        Result<TopKAnswer> served = server.Answer(q.graph, 10);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ExpectBitIdentical(*served, q.graph, 10);
      }
    }
  }
  // The second pass actually consulted feedback: the store accumulated
  // per-subtree cardinalities on the first.
  EXPECT_GT(server.query_stats()->feedback_size(), 0u);
}

TEST_F(PlannerEquivalenceTest, ExplainDescribesTheServedPlan) {
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(model_, &dataset_->train, options);
  query::QuerySampler sampler(&dataset_->train, 89);
  auto q = sampler.Sample(StructureId::k2i);
  ASSERT_TRUE(q.ok());
  Result<std::string> text = server.Explain(q->graph);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("plan:"), std::string::npos);
  EXPECT_NE(text->find("intersection"), std::string::npos);
  EXPECT_NE(text->find("rows~"), std::string::npos);

  // After serving the query its subtrees are cached and explain says so.
  ASSERT_TRUE(server.Answer(q->graph, 5).ok());
  Result<std::string> warm = server.Explain(q->graph);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find(" cached"), std::string::npos);

  // Malformed queries are rejected, not explained.
  Result<std::string> bad =
      server.Explain(query::MakeStructure(StructureId::k2i));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace halk::serving
