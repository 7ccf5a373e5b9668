#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/query_groups.h"
#include "nn/adam.h"
#include "obs/journal.h"
#include "obs/profiler.h"
#include "serving/metrics.h"
#include "tensor/tape.h"

namespace halk::core {

using query::GroundedQuery;
using query::StructureId;

bool ModelSupportsStructure(const QueryModel& model, StructureId structure) {
  const query::QueryGraph g = query::MakeStructure(structure);
  for (const query::QueryNode& n : g.nodes()) {
    if (n.op == query::OpType::kUnion) continue;  // handled via DNF
    if (!model.Supports(n.op)) return false;
  }
  return true;
}

std::string TrainerOptionsFingerprint(const TrainerOptions& options) {
  std::ostringstream rendered;
  rendered << "steps=" << options.steps << ";batch_size=" << options.batch_size
           << ";num_negatives=" << options.num_negatives
           << ";learning_rate=" << options.learning_rate
           << ";queries_per_structure=" << options.queries_per_structure
           << ";seed=" << options.seed
           << ";eval_every=" << options.eval_every
           << ";eval_queries_per_structure="
           << options.eval_queries_per_structure << ";structures=";
  for (StructureId s : options.structures) {
    rendered << query::StructureName(s) << ",";
  }
  std::ostringstream out;
  out << std::hex << Fnv1a64(rendered.str());
  return out.str();
}

Trainer::Trainer(QueryModel* model, const kg::KnowledgeGraph* graph,
                 const kg::NodeGrouping* grouping,
                 const TrainerOptions& options)
    : model_(model),
      graph_(graph),
      grouping_(grouping),
      options_(options),
      rng_(options.seed) {
  HALK_CHECK(model != nullptr);
  HALK_CHECK(graph != nullptr && graph->finalized());
  if (options_.structures.empty()) {
    options_.structures = query::TrainStructures();
  }
  for (StructureId s : options_.structures) {
    if (ModelSupportsStructure(*model_, s)) active_structures_.push_back(s);
  }
  HALK_CHECK(!active_structures_.empty())
      << "model " << model_->name() << " supports none of the structures";
}

Status Trainer::BuildPools() {
  if (pools_built_) return Status::OK();
  HALK_PROFILE_SCOPE("train/build_pools");
  query::QuerySampler sampler(graph_, options_.seed * 7919 + 13);
  for (StructureId s : active_structures_) {
    // The structure list may repeat entries to weight the training mix
    // (e.g. extra 1p passes, mirroring the benchmark protocols where
    // one-hop queries dominate); pools are shared across repeats.
    if (pools_.count(s) > 0) continue;
    HALK_ASSIGN_OR_RETURN(
        std::vector<GroundedQuery> pool,
        sampler.SampleMany(s, options_.queries_per_structure));
    std::vector<std::vector<float>> groups;
    if (grouping_ != nullptr) {
      groups.reserve(pool.size());
      for (const GroundedQuery& q : pool) {
        groups.push_back(QueryGroupVector(q.graph, *grouping_));
      }
    }
    pool_groups_[s] = std::move(groups);
    pools_[s] = std::move(pool);
  }
  pools_built_ = true;
  return Status::OK();
}

Status Trainer::BuildEvalPool() {
  if (!eval_pool_.empty()) return Status::OK();
  HALK_PROFILE_SCOPE("train/build_eval_pool");
  // Disjoint seed stream from BuildPools, so held-out queries never
  // coincide with the training pools by construction of the sampler.
  query::QuerySampler sampler(graph_, options_.seed * 31337 + 101);
  std::vector<StructureId> done;
  for (StructureId s : active_structures_) {
    if (std::find(done.begin(), done.end(), s) != done.end()) continue;
    done.push_back(s);
    HALK_ASSIGN_OR_RETURN(
        std::vector<GroundedQuery> pool,
        sampler.SampleMany(s, options_.eval_queries_per_structure));
    for (GroundedQuery& q : pool) eval_pool_.push_back(std::move(q));
  }
  return Status::OK();
}

const std::vector<GroundedQuery>& Trainer::Pool(StructureId structure) const {
  static const std::vector<GroundedQuery> kEmpty;
  auto it = pools_.find(structure);
  return it == pools_.end() ? kEmpty : it->second;
}

Result<TrainStats> Trainer::Train() {
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool was_profiling = profiler.enabled();
  if (options_.profile) profiler.set_enabled(true);
  const bool profiling = profiler.enabled();
  // Phase times are diffed against this baseline so a pre-warmed profiler
  // (earlier Train calls, serving traffic) does not pollute the breakdown.
  const obs::ProfileSnapshot phase_baseline =
      profiling ? profiler.Snapshot() : obs::ProfileSnapshot();

  HALK_PROFILE_SCOPE("train");
  Status pools_status = BuildPools();
  if (!pools_status.ok()) {
    if (options_.profile && !was_profiling) profiler.set_enabled(false);
    return pools_status;
  }
  const bool eval_on = options_.eval_every > 0;
  if (eval_on) {
    Status eval_status = BuildEvalPool();
    if (!eval_status.ok()) {
      if (options_.profile && !was_profiling) profiler.set_enabled(false);
      return eval_status;
    }
  }
  const auto start = std::chrono::steady_clock::now();

  nn::Adam::Options adam_options;
  adam_options.lr = options_.learning_rate;
  nn::Adam optimizer(model_->Parameters(), adam_options);

  // Tape accounting only when someone consumes it: its per-op map upkeep
  // is cheap but not free, and silent always-on accounting would violate
  // the "pay only when observed" discipline the tracer set.
  const bool accounting_on =
      options_.journal != nullptr || options_.metrics != nullptr;
  std::optional<tensor::TapeAccounting> accounting;
  if (accounting_on) accounting.emplace();

  const std::string fingerprint = TrainerOptionsFingerprint(options_);
  if (options_.journal != nullptr) {
    obs::JsonLineBuilder header;
    header.Str("record", "header")
        .Int("schema_version", 1)
        .Str("model", model_->name())
        .Int("seed", static_cast<int64_t>(options_.seed))
        .Str("options_fingerprint", fingerprint)
        .Int("steps", options_.steps)
        .Int("batch_size", options_.batch_size)
        .Int("num_negatives", options_.num_negatives)
        .Num("learning_rate", static_cast<double>(options_.learning_rate))
        .Int("queries_per_structure", options_.queries_per_structure)
        .Int("eval_every", options_.eval_every);
    std::string structures;
    for (StructureId s : active_structures_) {
      if (!structures.empty()) structures += ",";
      structures += query::StructureName(s);
    }
    header.Str("structures", structures);
    options_.journal->Write(header);
  }

  const int64_t num_entities = model_->config().num_entities;
  TrainStats stats;
  double loss_sum = 0.0;
  // Tape totals at the start of the current step, for per-step deltas.
  tensor::TapeStats tape_before;

  for (int step = 0; step < options_.steps; ++step) {
    HALK_PROFILE_SCOPE("train/step");
    const auto step_start = std::chrono::steady_clock::now();
    if (accounting) tape_before = accounting->stats();
    const StructureId s = active_structures_[static_cast<size_t>(step) %
                                             active_structures_.size()];
    const std::vector<GroundedQuery>& pool = pools_[s];
    const std::vector<std::vector<float>>& groups = pool_groups_[s];

    std::vector<const query::QueryGraph*> graphs;
    LossBatch batch;
    graphs.reserve(static_cast<size_t>(options_.batch_size));
    {
      HALK_PROFILE_SCOPE("sample");
      for (int b = 0; b < options_.batch_size; ++b) {
        const size_t qi = static_cast<size_t>(rng_.UniformInt(pool.size()));
        const GroundedQuery& q = pool[qi];
        graphs.push_back(&q.graph);
        // Positive: uniform over the exact answer set.
        batch.positives.push_back(
            q.answers[static_cast<size_t>(rng_.UniformInt(q.answers.size()))]);
        // Negatives: uniform over non-answers (rejection sampling).
        std::vector<int64_t> negs;
        std::vector<float> neg_pen;
        negs.reserve(static_cast<size_t>(options_.num_negatives));
        for (int j = 0; j < options_.num_negatives; ++j) {
          int64_t e = 0;
          for (int tries = 0; tries < 16; ++tries) {
            e = static_cast<int64_t>(
                rng_.UniformInt(static_cast<uint64_t>(num_entities)));
            if (!std::binary_search(q.answers.begin(), q.answers.end(), e)) {
              break;
            }
          }
          negs.push_back(e);
          neg_pen.push_back(
              grouping_ == nullptr
                  ? 0.0f
                  : GroupPenalty(e, groups[qi], *grouping_));
        }
        batch.negatives.push_back(std::move(negs));
        batch.negative_penalty.push_back(std::move(neg_pen));
        batch.positive_penalty.push_back(
            grouping_ == nullptr
                ? 0.0f
                : GroupPenalty(batch.positives.back(), groups[qi],
                               *grouping_));
      }
    }

    EmbeddingBatch embedding;
    {
      HALK_PROFILE_SCOPE("embed");
      embedding = model_->EmbedQueries(graphs);
    }
    tensor::Tensor loss;
    {
      HALK_PROFILE_SCOPE("loss");
      loss = NegativeSamplingLoss(model_, embedding, batch);
    }
    {
      HALK_PROFILE_SCOPE("backward");
      optimizer.ZeroGrad();
      tensor::Backward(loss);
    }
    {
      HALK_PROFILE_SCOPE("adam");
      optimizer.Step();
    }

    stats.final_loss = static_cast<double>(loss.at(0));
    stats.grad_norm = optimizer.last_grad_norm();
    stats.update_norm = optimizer.last_update_norm();
    loss_sum += stats.final_loss;
    ++stats.steps;

    if (options_.journal != nullptr) {
      const tensor::TapeStats& tape = accounting->stats();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - step_start)
              .count();
      obs::JsonLineBuilder record;
      record.Str("record", "step")
          .Int("step", step + 1)
          .Str("structure", query::StructureName(s))
          .Num("loss", stats.final_loss)
          .Num("grad_norm", stats.grad_norm)
          .Num("update_norm", stats.update_norm)
          .Num("wall_ms", wall_ms)
          .Int("forward_ops", tape.forward_nodes - tape_before.forward_nodes)
          .Int("backward_ops",
               tape.backward_nodes - tape_before.backward_nodes)
          .Int("forward_flops",
               tape.forward_flops - tape_before.forward_flops)
          .Int("backward_flops",
               tape.backward_flops - tape_before.backward_flops)
          .Int("forward_bytes",
               tape.forward_bytes - tape_before.forward_bytes)
          .Int("peak_graph_bytes", tape.peak_graph_bytes);
      options_.journal->Write(record);
    }

    if (eval_on && (step + 1) % options_.eval_every == 0) {
      HALK_PROFILE_SCOPE("eval");
      Evaluator evaluator(model_);
      const Metrics metrics = evaluator.Evaluate(eval_pool_);
      if (options_.journal != nullptr) {
        obs::JsonLineBuilder record;
        record.Str("record", "eval")
            .Int("step", step + 1)
            .Num("mrr", metrics.mrr)
            .Num("hits1", metrics.hits1)
            .Num("hits3", metrics.hits3)
            .Num("hits10", metrics.hits10)
            .Int("num_queries", metrics.num_queries);
        options_.journal->Write(record);
      }
      if (options_.log_every > 0) {
        HALK_LOG(Info) << model_->name() << " eval @" << (step + 1)
                       << " mrr " << metrics.mrr << " hits@3 "
                       << metrics.hits3;
      }
    }

    if (options_.log_every > 0 && (step + 1) % options_.log_every == 0) {
      HALK_LOG(Info) << model_->name() << " step " << (step + 1) << "/"
                     << options_.steps << " structure "
                     << query::StructureName(s) << " loss "
                     << stats.final_loss;
    }
  }
  stats.mean_loss = stats.steps > 0 ? loss_sum / static_cast<double>(stats.steps) : 0.0;
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  if (accounting) {
    const tensor::TapeStats& tape = accounting->stats();
    stats.forward_ops = tape.forward_nodes;
    stats.backward_ops = tape.backward_nodes;
    stats.forward_flops = tape.forward_flops;
    stats.backward_flops = tape.backward_flops;
    stats.peak_graph_bytes = tape.peak_graph_bytes;
    if (options_.metrics != nullptr) {
      serving::MetricsRegistry* registry = options_.metrics;
      registry->GetCounter("train.tape.forward_ops")
          ->Increment(tape.forward_nodes);
      registry->GetCounter("train.tape.backward_ops")
          ->Increment(tape.backward_nodes);
      registry->GetCounter("train.tape.forward_flops")
          ->Increment(tape.forward_flops);
      registry->GetCounter("train.tape.backward_flops")
          ->Increment(tape.backward_flops);
      registry->GetCounter("train.tape.forward_bytes")
          ->Increment(tape.forward_bytes);
      registry->GetCounter("train.tape.backward_bytes")
          ->Increment(tape.backward_bytes);
      registry->GetGauge("train.tape.peak_graph_bytes")
          ->Set(static_cast<double>(tape.peak_graph_bytes));
      registry->GetCounter("train.steps")->Increment(stats.steps);
      for (const auto& [op, bucket] : tape.forward) {
        registry->GetCounter("train.tape.ops", {{"op", op}, {"pass", "forward"}})
            ->Increment(bucket.count);
      }
      for (const auto& [op, bucket] : tape.backward) {
        registry
            ->GetCounter("train.tape.ops", {{"op", op}, {"pass", "backward"}})
            ->Increment(bucket.count);
      }
    }
  }

  if (profiling) {
    const obs::ProfileSnapshot now = profiler.Snapshot();
    auto phase_seconds = [&](const std::string& name) {
      const int64_t delta = now.TotalNs(name) - phase_baseline.TotalNs(name);
      return static_cast<double>(std::max<int64_t>(0, delta)) / 1e9;
    };
    stats.sample_seconds = phase_seconds("sample");
    stats.embed_seconds = phase_seconds("embed");
    stats.loss_seconds = phase_seconds("loss");
    stats.backward_seconds = phase_seconds("backward");
    stats.adam_seconds = phase_seconds("adam");
  }
  if (options_.profile && !was_profiling) profiler.set_enabled(false);
  return stats;
}

}  // namespace halk::core
