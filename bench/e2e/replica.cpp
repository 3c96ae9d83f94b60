#include "replica.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aggregation/hierarchical.hpp"
#include "attacks/adaptive.hpp"
#include "core/checkpoint.hpp"
#include "core/membership.hpp"
#include "core/pipeline.hpp"
#include "core/reputation.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"
#include "core/worker.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "models/optimizer.hpp"

namespace e2e {

using dpbyz::Attack;
using dpbyz::AttackContext;
using dpbyz::Dataset;
using dpbyz::ExperimentConfig;
using dpbyz::GradientBatch;
using dpbyz::HonestWorker;
using dpbyz::MembershipManager;
using dpbyz::MembershipView;
using dpbyz::Model;
using dpbyz::ParameterServer;
using dpbyz::ReputationBook;
using dpbyz::Rng;
using dpbyz::RoundPipeline;
using dpbyz::RunResult;
using dpbyz::Vector;

namespace {

/// Rounds the replica fills itself (see the header comment).
bool fills_in_place(const ExperimentConfig& c) {
  return c.pipeline_depth == 0 && c.churn == "off" && c.checkpoint_path.empty();
}

size_t honest_rows(const ExperimentConfig& c) {
  return c.attack_enabled ? c.num_workers - c.num_byzantine : c.num_workers;
}

}  // namespace

size_t span_capacity(const ExperimentConfig& config) {
  // In-place fills record the round, one span per honest worker, the
  // forge, aggregate, apply and eval; pipeline rounds record the round
  // and at most eight layer calls.
  const size_t per_round = fills_in_place(config) ? honest_rows(config) + 5 : 9;
  return config.steps * per_round;
}

RunResult run_replica(const ExperimentConfig& config, const Model& model,
                      const Dataset& train, const Dataset& test, Tracer& tracer) {
  config.validate();
  if (config.data_partition != "shared" || config.participation != "full" ||
      config.dropout_prob != 0.0 || config.straggler_policy != "off" ||
      (!config.checkpoint_path.empty() && config.checkpoint_resume))
    throw std::invalid_argument("run_replica: configuration outside the mirrored knobs");
  tracer.clear();

  const dpbyz::kernels::MathModeScope math_mode(config.fast_math
                                                    ? dpbyz::kernels::MathMode::kFast
                                                    : dpbyz::kernels::MathMode::kScalar);
  const size_t n = config.num_workers;
  const size_t f = config.attack_enabled ? config.num_byzantine : 0;
  const size_t active_honest = honest_rows(config);
  const size_t dim = model.dim();

  const std::unique_ptr<dpbyz::NoiseMechanism> mechanism =
      dpbyz::make_mechanism(config, dim);
  const std::unique_ptr<Attack> attack =
      config.attack_enabled
          ? dpbyz::make_attack(config.attack, config.attack_nu,
                               dpbyz::AdaptiveSpec{config.gar, config.prune,
                                                   config.adapt_probes,
                                                   config.adapt_budget})
          : nullptr;

  Rng root(config.seed);
  const bool churning = config.churn == "epoch";
  const size_t pool =
      churning ? MembershipManager::pool_size_for(config, active_honest) : active_honest;
  std::unique_ptr<MembershipManager> membership;
  ReputationBook reputation;
  if (churning) {
    membership = std::make_unique<MembershipManager>(
        config, active_honest, Rng(config.churn_seed).derive("churn"));
    reputation = ReputationBook(config, pool);
  }

  std::vector<HonestWorker> honest;
  honest.reserve(pool);
  for (size_t i = 0; i < pool; ++i)
    honest.emplace_back(model, train, config.batch_size, config.clip_norm, *mechanism,
                        root.derive("worker-" + std::to_string(i)), config.clip_enabled,
                        config.worker_momentum);

  const dpbyz::LrSchedule schedule =
      config.lr_schedule == "theorem1" ? dpbyz::theorem1_lr(1.0 / config.learning_rate, 0.0)
                                       : dpbyz::constant_lr(config.learning_rate);
  ParameterServer server(dpbyz::make_round_aggregator(config, n),
                         dpbyz::SgdOptimizer(dim, schedule, config.momentum),
                         model.initial_parameters());

  RunResult result;
  result.train_loss.reserve(config.steps);
  result.round_rows.reserve(config.steps);
  result.round_f.reserve(config.steps);
  result.eval.reserve(config.steps / config.eval_every + 1);
  const bool observe_clean = config.attack_enabled && config.attack_observes == "clean";

  auto evaluate = [&](size_t t) {
    if (t % config.eval_every != 0 && t != config.steps) return;
    const Tracer::Scope span = tracer.span(Layer::kEval, t);
    result.eval.push_back({t, model.accuracy(server.parameters(), test)});
  };
  auto aggregate_and_apply = [&](const dpbyz::Aggregator& gar, const GradientBatch& batch,
                                 size_t t) {
    {
      const Tracer::Scope span = tracer.span(Layer::kAggregate, t);
      server.aggregate_with(gar, batch);
    }
    const Tracer::Scope span = tracer.span(Layer::kApply, t);
    server.apply(t);
  };

  if (fills_in_place(config)) {
    // RoundPipeline::fill_into at depth 0 with full participation: submit
    // in worker order, forge behind the honest prefix, no dropout.
    GradientBatch batch(active_honest + f, dim);
    GradientBatch clean;
    if (observe_clean) clean.reshape(active_honest, dim);
    Rng attack_rng = root.derive("attack");
    for (size_t t = 1; t <= config.steps; ++t) {
      const Tracer::Scope round_span = tracer.span(Layer::kRound, t);
      const Vector& w = server.parameters();
      for (size_t k = 0; k < active_honest; ++k) {
        const Tracer::Scope span = tracer.span(Layer::kWorkerSubmit, t);
        honest[k].submit_into(w, batch.row(k));
        if (observe_clean) clean.set_row(k, honest[k].last_clean_gradient());
      }
      double loss_sum = 0.0;
      for (size_t k = 0; k < active_honest; ++k) loss_sum += honest[k].last_batch_loss();
      if (attack && f > 0) {
        const Tracer::Scope span = tracer.span(Layer::kForge, t);
        const AttackContext ctx{observe_clean ? clean : batch, active_honest, f, t, 0};
        attack->forge_into(ctx, attack_rng, batch.row(active_honest));
        for (size_t r = active_honest + 1; r < active_honest + f; ++r)
          dpbyz::vec::copy(batch.row(active_honest), batch.row(r));
      }
      result.train_loss.push_back(loss_sum / static_cast<double>(active_honest));
      result.round_rows.push_back(active_honest + f);
      result.round_f.push_back(config.num_byzantine);
      aggregate_and_apply(server.gar(), batch.view(0, active_honest + f), t);
      evaluate(t);
    }
  } else {
    dpbyz::ParticipationSchedule participation(config, honest.size(),
                                               root.derive("participation"));
    RoundPipeline pipeline(config, honest, attack.get(), f, observe_clean, dim,
                           root.derive("attack"), root.derive("dropout"),
                           std::move(participation), &server.gar(), membership.get());

    const bool checkpointing = !config.checkpoint_path.empty();
    const std::string signature = checkpointing ? dpbyz::checkpoint_signature(config) : "";
    auto write_checkpoint = [&](size_t t) {
      dpbyz::TrainerCheckpoint ckpt;
      {
        const Tracer::Scope span = tracer.span(Layer::kCheckpointCapture, t);
        ckpt.signature = signature;
        ckpt.round = t;
        ckpt.params = server.parameters();
        ckpt.velocity = server.velocity();
        ckpt.worker_blobs.reserve(honest.size());
        for (const HonestWorker& w : honest) {
          std::ostringstream ss;
          w.save_state(ss);
          ckpt.worker_blobs.push_back(std::move(ss).str());
        }
        if (attack) {
          std::ostringstream ss;
          attack->save_state(ss);
          ckpt.attack_blob = std::move(ss).str();
        }
        {
          std::ostringstream ss;
          pipeline.save_stream_state(ss);
          ckpt.stream_blob = std::move(ss).str();
        }
        if (membership) {
          std::ostringstream ms;
          membership->save(ms);
          ckpt.membership_blob = std::move(ms).str();
          std::ostringstream rs;
          reputation.save(rs);
          ckpt.reputation_blob = std::move(rs).str();
        }
        ckpt.train_loss = result.train_loss;
        ckpt.round_rows.assign(result.round_rows.begin(), result.round_rows.end());
        ckpt.round_f.assign(result.round_f.begin(), result.round_f.end());
        ckpt.eval = result.eval;
      }
      const Tracer::Scope span = tracer.span(Layer::kCheckpointWrite, t);
      dpbyz::save_checkpoint(config.checkpoint_path, ckpt);
    };
    auto process_boundary = [&](size_t t) {
      if (!membership || t >= config.steps || !membership->is_boundary(t)) return;
      const Tracer::Scope span = tracer.span(Layer::kMembership, t);
      membership->advance(t, reputation);
      const MembershipView& mv = membership->view();
      const size_t rows_e = mv.active.size() + (f > 0 ? mv.byzantine : 0);
      server.renegotiate(config, mv.epoch, rows_e, mv.byzantine);
      pipeline.adopt_rule(rows_e, mv.byzantine, &server.gar());
    };

    for (size_t t = 1; t <= config.steps; ++t) {
      const Tracer::Scope round_span = tracer.span(Layer::kRound, t);
      const RoundPipeline::Round* round = nullptr;
      {
        const Tracer::Scope span = tracer.span(Layer::kFillWait, t);
        round = &pipeline.acquire(t, server.parameters());
      }
      result.train_loss.push_back(round->loss_sum / static_cast<double>(round->live_honest));
      result.round_rows.push_back(round->rows);
      result.round_f.push_back(round->f_budget);
      aggregate_and_apply(pipeline.aggregator_for(round->rows, round->f_budget),
                          round->batch_view, t);
      if (membership) {
        const Tracer::Scope span = tracer.span(Layer::kReputation, t);
        reputation.observe_round(round->batch_view, round->live_honest, round->live_ids,
                                 round->shadow_view, round->shadow_ids,
                                 server.last_aggregate());
      }
      evaluate(t);
      if (checkpointing && (t % config.checkpoint_every == 0 || t == config.steps))
        write_checkpoint(t);
      process_boundary(t);
    }
    if (config.tree_levels > 0) pipeline.add_channel_stats(result.channel);
  }

  if (config.tree_levels > 0) {
    if (const auto* tree = dynamic_cast<const dpbyz::HierarchicalAggregator*>(&server.gar()))
      result.channel.accumulate(tree->channel_stats());
    server.add_retired_channel_stats(result.channel);
  }
  result.final_parameters = server.parameters();
  result.final_accuracy = result.eval.back().accuracy;
  result.final_train_loss = result.train_loss.back();
  return result;
}

}  // namespace e2e
