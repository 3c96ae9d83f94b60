#include "aggregation/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/rng.hpp"
#include "utils/errors.hpp"
#include "utils/parallel.hpp"

namespace dpbyz {

namespace {

/// Runs `make_stage` (a factory returning a stage aggregator) and, when
/// the stage rejects its derived (count, f) pair, rethrows with `context`
/// prefixed — so an inadmissible level deep in a tree names its own
/// budget and how it was derived, not just the leaf rule's constraint.
template <typename Fn>
auto with_budget_context(const std::string& context, Fn&& make_stage) {
  try {
    return make_stage();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(context + ": " + e.what());
  }
}

// Per-node channel seed: the same index-derivation schedule Rng::derive
// uses, keyed by the child's position — every node's fault stream is a
// pure function of (channel_seed, tree path), independent of sibling
// traffic and of the thread width.
uint64_t child_seed(uint64_t parent_seed, size_t b) {
  return splitmix64(parent_seed + 0x9e3779b97f4a7c15ULL * (b + 1));
}

}  // namespace

HierarchicalAggregator::HierarchicalAggregator(const std::string& inner,
                                               const std::string& merge, size_t n,
                                               size_t f, size_t levels, size_t branch,
                                               size_t threads, const net::LinkConfig* link)
    : HierarchicalAggregator(inner, merge, n, f, levels, branch, threads, link,
                             link != nullptr ? link->channel_seed : 0, "root") {}

HierarchicalAggregator::HierarchicalAggregator(
    const std::string& inner, const std::string& merge, size_t n, size_t f,
    size_t levels, size_t branch, size_t threads, const net::LinkConfig* link,
    uint64_t node_seed, const std::string& node_path)
    : Aggregator(n, f),
      levels_(levels),
      branch_(branch),
      threads_(resolve_threads(threads)),
      inner_name_(inner),
      node_path_(node_path) {
  require(levels >= 1, "HierarchicalAggregator: need at least one level");
  require(branch >= 1, "HierarchicalAggregator: need branching factor >= 1");
  // Every leaf view must be non-empty: branch^levels <= n, checked
  // multiplicatively so huge (L, B) pairs cannot overflow.
  size_t leaves = 1;
  for (size_t l = 0; l < levels; ++l) {
    require(leaves <= n / branch,
            "HierarchicalAggregator: B^L = " + std::to_string(branch) + "^" +
                std::to_string(levels) + " leaf shards exceed n = " +
                std::to_string(n) + " rows");
    leaves *= branch;
  }

  // The worst-case stage budget (see header); f = 0 yields {0, 0}.
  child_f_ = (f + branch - 1) / branch;
  merge_f_ = f / (child_f_ + 1);

  children_.reserve(branch_);
  for (size_t b = 0; b < branch_; ++b) {
    const auto [lo, hi] = child_range(b);
    const std::string context =
        "HierarchicalAggregator: node " + node_path_ + " level " +
        std::to_string(levels_) + ", child " + std::to_string(b) + " (rows " +
        std::to_string(hi - lo) + ", f_child " + std::to_string(child_f_) +
        "; derived from (n=" + std::to_string(n) + ", f=" + std::to_string(f) +
        ", B=" + std::to_string(branch) + "))";
    if (levels_ == 1) {
      children_.push_back(with_budget_context(
          context, [&] { return make_aggregator(inner, hi - lo, child_f_); }));
    } else {
      auto sub = with_budget_context(context, [&] {
        return std::unique_ptr<HierarchicalAggregator>(new HierarchicalAggregator(
            inner, merge, hi - lo, child_f_, levels_ - 1, branch_, threads_, link,
            child_seed(node_seed, b), node_path_ + "." + std::to_string(b)));
      });
      tree_children_.push_back(sub.get());
      children_.push_back(std::move(sub));
    }
  }

  const std::string merge_context =
      "HierarchicalAggregator: node " + node_path_ + " level " +
      std::to_string(levels_) + ", merge stage (B=" + std::to_string(branch) +
      ", f_merge " + std::to_string(merge_f_) + "; derived from (n=" +
      std::to_string(n) + ", f=" + std::to_string(f) + "), f_child " +
      std::to_string(child_f_) + ")";
  merge_ = with_budget_context(
      merge_context, [&] { return make_aggregator(merge, branch_, merge_f_); });

  // See weighted_merge(): at deeper levels the test is local (this
  // node's own n % B), and a weighted-average node composes with
  // weighted children into the subtree-size-weighted mean.  Even splits
  // (B | n) keep the plain merge, where the two means coincide.
  weighted_merge_ = merge_->name() == "average" && n % branch_ != 0;
  child_ws_.resize(branch_);
  if (link != nullptr)
    transport_ = std::make_unique<net::EdgeTransport>(*link, node_seed);
}

std::string HierarchicalAggregator::name() const {
  return "tree(" + inner_name_ + "/" + merge_->name() +
         ",L=" + std::to_string(levels_) + ",B=" + std::to_string(branch_) + ")";
}

std::pair<size_t, size_t> HierarchicalAggregator::child_range(size_t b) const {
  require(b < branch_, "HierarchicalAggregator::child_range: child index out of range");
  // Balanced contiguous split: child b covers [b*n/B, (b+1)*n/B), so
  // sizes differ by at most one and every row belongs to exactly one
  // child.
  return {b * n() / branch_, (b + 1) * n() / branch_};
}

net::ChannelStats HierarchicalAggregator::channel_stats() const {
  net::ChannelStats total = stats_;
  for (const HierarchicalAggregator* sub : tree_children_) {
    const net::ChannelStats sub_stats = sub->channel_stats();
    total.accumulate(sub_stats);
  }
  return total;
}

void HierarchicalAggregator::aggregate_into(const GradientBatch& batch,
                                            AggregatorWorkspace& ws) const {
  if (!ws.rows_finite) require_finite(batch, threads_);
  const size_t d = batch.dim();
  child_aggregates_.reshape(branch_, d);  // no-alloc after warmup

  auto do_child = [&](size_t b) {
    const auto [lo, hi] = child_range(b);
    const GradientBatch sub = batch.view(lo, hi);
    // The result stays in child_ws_[b].output until the serial gather
    // below — the workspace contract keeps it valid until the next
    // aggregate on that workspace.
    children_[b]->run(sub, child_ws_[b], /*rows_finite=*/true);
  };

  // Child-per-task is the coarsest grain; nested tree levels run
  // serially inside their parent's task (ThreadPool runs nested jobs on
  // the issuing worker), so only the top level fans out.
  if (threads_ == 1 || branch_ <= 1) {
    for (size_t b = 0; b < branch_; ++b) do_child(b);
  } else {
    ThreadPool::shared().run(branch_, do_child, threads_);
  }

  // Gather into the merge arena — serially, in child order, so the
  // channel's fault stream never depends on task completion order.
  size_t substituted = 0;
  for (size_t b = 0; b < branch_; ++b) {
    const std::span<const double> aggregate{child_ws_[b].output};
    const std::span<double> slot = child_aggregates_.row(b);
    if (transport_ != nullptr) {
      if (!transport_->transfer(aggregate, slot, stats_)) ++substituted;
    } else {
      std::copy(aggregate.begin(), aggregate.end(), slot.begin());
    }
  }
  if (substituted > merge_f_)
    throw std::runtime_error(
        "HierarchicalAggregator: node " + node_path_ + ": " +
        std::to_string(substituted) +
        " child aggregates were zero-substituted after channel loss, exceeding "
        "the level's merge budget f_merge = " +
        std::to_string(merge_f_) +
        " — the worst-case resilience argument no longer covers this round");

  if (weighted_merge_) {
    // Subtree-size-weighted mean: out = (1/n) Σ_b n_b · agg_b.
    vec::fill(ws.output, 0.0);
    for (size_t b = 0; b < branch_; ++b) {
      const auto [lo, hi] = child_range(b);
      vec::axpy_inplace(ws.output, static_cast<double>(hi - lo),
                        child_aggregates_.row(b));
    }
    vec::scale_inplace(ws.output, 1.0 / static_cast<double>(n()));
    return;
  }
  merge_->aggregate(child_aggregates_, ws);
}

}  // namespace dpbyz
