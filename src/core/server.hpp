// server.hpp — the (honest-but-curious) parameter server.
//
// The server is honest in computation: it applies the configured GAR to
// the n received gradients and updates the model (Eq. 1, plus the
// experiments' heavy-ball momentum), then "broadcasts" the new parameters
// (callers read parameters()).  Its curiosity — trying to invert honest
// gradients — is a privacy concern handled on the worker side by the DP
// mechanism; the server object needs no code for it.
//
// The server owns the AggregatorWorkspace its GAR aggregates through, so
// a round (aggregate_with(gar(), batch), then apply(t)) allocates nothing
// once the workspace has warmed up, and grants that workspace its thread
// budget.  The two phases stay separate calls so the round engine can
// time and interleave them.
#pragma once

#include <memory>

#include "aggregation/aggregator.hpp"
#include "core/config.hpp"
#include "models/optimizer.hpp"
#include "net/channel.hpp"

namespace dpbyz {

class ParameterServer {
 public:
  /// Takes ownership of the GAR and optimizer; `w0` is the initial model.
  /// `threads` is the aggregation's thread budget (AggregatorWorkspace::
  /// threads), resolved here: 0 (the default, as for
  /// ExperimentConfig::threads) picks the hardware concurrency, 1 keeps
  /// every aggregation on the calling thread.  No width changes a bit.
  ParameterServer(std::unique_ptr<Aggregator> gar, SgdOptimizer optimizer, Vector w0,
                  size_t threads = 0);

  /// Phase 1 of a round: run `gar` over the batch rows and latch the
  /// result into last_aggregate(); the model is untouched.  `gar` is
  /// gar() for a full round; the round engine swaps in a per-(n', f)
  /// rule when participation shrinks the round (the GAR is constructed
  /// at a fixed row count; see core/pipeline.hpp).  Scratch comes from
  /// this server's workspace, so this allocates nothing at steady state.
  void aggregate_with(const Aggregator& gar, const GradientBatch& batch);

  /// Phase 2 of a round: apply the latched aggregate for (1-based) step t.
  void apply(size_t t);

  const Vector& parameters() const { return w_; }
  const Vector& last_aggregate() const { return last_aggregate_; }
  const Aggregator& gar() const { return *gar_; }
  const Vector& velocity() const { return optimizer_.velocity(); }

  /// Membership-epoch renegotiation: replace the server's own rule with
  /// the configured GAR rebuilt at the epoch's negotiated budget
  /// (rows = h_e + f_e submissions, f_e tolerated).  Throws
  /// std::runtime_error naming the epoch and the renegotiated (n, f)
  /// when the budget is inadmissible for the rule — the run cannot
  /// continue under its configured defense.  Retired rules stay alive
  /// for the server's lifetime: the round engine's per-(n', f) cache may
  /// still route later partial rounds through them.
  void renegotiate(const ExperimentConfig& config, size_t epoch, size_t rows,
                   size_t f);

  /// Accumulate the wire/channel counters of every rule retired by
  /// renegotiate() (no-op for the flat topology).  Call after the
  /// last round, like RoundPipeline::add_channel_stats.
  void add_retired_channel_stats(net::ChannelStats& out) const;

  /// Checkpoint restore: overwrite the model parameters and the
  /// optimizer's momentum buffer.
  void restore(Vector w, const Vector& velocity);

 private:
  std::unique_ptr<Aggregator> gar_;
  SgdOptimizer optimizer_;
  Vector w_;
  Vector last_aggregate_;
  AggregatorWorkspace ws_;
  /// Rules replaced by renegotiate(), kept alive (see renegotiate docs).
  std::vector<std::unique_ptr<Aggregator>> retired_;
};

}  // namespace dpbyz
