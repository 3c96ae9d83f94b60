// replica.hpp — a traced copy of the Trainer::run loop.
//
// The replica builds the same public objects Trainer::run builds (workers,
// mechanism, attack, ParameterServer, RoundPipeline, membership,
// reputation, checkpoints) and drives them in the same call order, with a
// span around each call into a layer.  It mirrors src/core/trainer.cpp and,
// for depth-0 rounds, RoundPipeline::fill_into in src/core/pipeline.cpp:
// when either changes, the replica must follow.  bench_e2e compares the
// replica's final θ and train_loss bit for bit against Trainer::run
// (trace.identical) before its per-layer numbers are trusted.
//
// Depth-0 rounds without churn or checkpoints are filled here, worker by
// worker, so workers and the attack get spans of their own; every other
// configuration fills through RoundPipeline::acquire (core.fill_wait).
#pragma once

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "data/dataset.hpp"
#include "models/model.hpp"
#include "trace.hpp"

namespace e2e {

/// Spans one traced run of `config` can record (sizes the Tracer).
size_t span_capacity(const dpbyz::ExperimentConfig& config);

/// Run `config` like Trainer::run, recording spans into `tracer`.  Fills
/// final_parameters, train_loss, eval, final_accuracy, final_train_loss
/// and channel; the other RunResult fields stay empty.  Throws
/// std::invalid_argument for knobs the replica does not mirror
/// (non-shared data, partial participation, dropout, stragglers,
/// resuming from a checkpoint).
dpbyz::RunResult run_replica(const dpbyz::ExperimentConfig& config,
                             const dpbyz::Model& model, const dpbyz::Dataset& train,
                             const dpbyz::Dataset& test, Tracer& tracer);

}  // namespace e2e
