#include "core/server.hpp"

#include <stdexcept>
#include <string>

#include "aggregation/hierarchical.hpp"
#include "core/trainer.hpp"
#include "utils/errors.hpp"
#include "utils/parallel.hpp"

namespace dpbyz {

ParameterServer::ParameterServer(std::unique_ptr<Aggregator> gar, SgdOptimizer optimizer,
                                 Vector w0, size_t threads)
    : gar_(std::move(gar)), optimizer_(std::move(optimizer)), w_(std::move(w0)) {
  require(gar_ != nullptr, "ParameterServer: null aggregator");
  ws_.threads = resolve_threads(threads);
}

void ParameterServer::aggregate_with(const Aggregator& gar, const GradientBatch& batch) {
  const auto view = gar.aggregate(batch, ws_);
  last_aggregate_.assign(view.begin(), view.end());
}

void ParameterServer::apply(size_t t) { optimizer_.step(w_, last_aggregate_, t); }

void ParameterServer::renegotiate(const ExperimentConfig& config, size_t epoch,
                                  size_t rows, size_t f) {
  std::unique_ptr<Aggregator> next;
  try {
    next = make_round_aggregator(config, rows, f);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        "ParameterServer: epoch " + std::to_string(epoch) +
        " renegotiated budget (n = " + std::to_string(rows) +
        ", f = " + std::to_string(f) + ") is inadmissible for gar '" +
        config.gar + "': " + e.what());
  }
  retired_.push_back(std::move(gar_));
  gar_ = std::move(next);
}

void ParameterServer::add_retired_channel_stats(net::ChannelStats& out) const {
  for (const std::unique_ptr<Aggregator>& rule : retired_)
    if (const auto* tree = dynamic_cast<const HierarchicalAggregator*>(rule.get()))
      out.accumulate(tree->channel_stats());
}

void ParameterServer::restore(Vector w, const Vector& velocity) {
  require(w.size() == w_.size(), "ParameterServer::restore: dimension mismatch");
  w_ = std::move(w);
  optimizer_.restore_velocity(velocity);
}

}  // namespace dpbyz
