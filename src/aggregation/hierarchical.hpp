// hierarchical.hpp — recursive L-level robust aggregation tree.
//
// The robust GARs are O(n²d) on the pairwise-distance kernel, which caps
// how large a single flat committee can get.  The tree breaks that wall
// the way large-scale dissemination systems do: partition the
// population, aggregate locally, then robust-merge the local results —
// and recurse when even the partitions are too big.  A node at (n, f)
// splits its rows into B contiguous GradientBatch views (no row is
// copied), hands each child (n_child, ceil(f/B)) with L−1 levels below
// it, and robust-merges the B child aggregates:
//
//   level budget   child_f = ceil(f / B),  merge_f = floor(f / (child_f + 1))
//
//   n rows ── B views ── … ── B^L leaf views, each a flat inner GAR
//                └─ every internal node: merge GAR at (B, its merge_f)
//
// The budget is the worst case (derivation in docs/ARCHITECTURE.md,
// "Hierarchical aggregation & wire format"): overwhelming one child
// costs the adversary child_f + 1 of its f rows, so at most merge_f
// children can exceed their budget, and the merge GAR absorbs them.
// Both stages must be admissible at their derived pairs — small B with
// f >= 2 typically fails the merge condition (median needs
// B >= 2 merge_f + 1), the price of the worst-case guarantee.  Each
// uncorrupted child filters at child_f over n_child rows, so the paper's
// single-stage VN-ratio constants do not carry over: vn_threshold() is
// NaN.  L = 1 is the two-level sharded topology (S = B shards, one
// merge); the flat path (tree_levels = 0 in ExperimentConfig) is
// untouched.
//
// Edges (optional): with a net::LinkConfig, every child aggregate
// travels to its parent through the framed wire format and the
// simulated channel (src/net/) — encode, lossy delivery, reassembly,
// retransmit.  A child whose row cannot be reassembled is substituted
// with the zero vector (§2.1's non-received-gradient convention) and
// spends one unit of this node's merge_f budget; a round where channel
// loss exceeds merge_f throws instead of silently out-running the
// worst-case argument.  Child *computation* may fan out on the
// ThreadPool, but transfers run serially in child order at each node and
// every node's channel stream is seeded by its tree path, so a lossy
// round is a pure function of (config, seed, channel_seed) — never of
// the thread width.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/aggregator.hpp"
#include "net/transport.hpp"

namespace dpbyz {

class HierarchicalAggregator final : public Aggregator {
 public:
  /// An L-level tree over n rows with fan-out `branch` per node.  `inner`
  /// names the leaf GAR, `merge` the per-node merge GAR (both
  /// make_aggregator names); `threads` is the top-level child dispatch
  /// width (0 = hardware concurrency; nested levels run serially inside
  /// their task, and every child workspace keeps the serial pairwise
  /// budget).  `link` != nullptr puts the framed wire + simulated
  /// channel on every edge (the config is copied).  Throws
  /// std::invalid_argument when levels or branch is 0, when branch^levels
  /// exceeds n (an empty leaf), or when any level's stage is inadmissible
  /// at its derived budget — the message names the failing node's path
  /// and derived (count, f) pair.
  HierarchicalAggregator(const std::string& inner, const std::string& merge,
                         size_t n, size_t f, size_t levels, size_t branch,
                         size_t threads = 1, const net::LinkConfig* link = nullptr);

  std::string name() const override;

  size_t levels() const { return levels_; }
  size_t branch() const { return branch_; }
  /// This node's per-child budget, ceil(f / B).
  size_t child_f() const { return child_f_; }
  /// This node's merge-stage budget, floor(f / (child_f + 1)).
  size_t merge_f() const { return merge_f_; }
  /// Row range [lo, hi) of child b; sizes differ by at most one.
  std::pair<size_t, size_t> child_range(size_t b) const;

  /// Child b: a HierarchicalAggregator with levels() − 1 levels, or the
  /// flat inner GAR at the leaves (levels() == 1).
  const Aggregator& child(size_t b) const { return *children_.at(b); }
  const Aggregator& merge_rule() const { return *merge_; }

  /// True when the merge stage is the size-weighted average: an "average"
  /// merge over uneven child subtree sizes weights each child aggregate
  /// by its row count (out = (1/n) Σ n_b·agg_b), so tree(average/average)
  /// tracks the flat mean for every (n, B) instead of only B | n.  Even
  /// splits keep the plain (unweighted) merge; robust merges are always
  /// unweighted — every child aggregate is one vote in the budget
  /// argument.
  bool weighted_merge() const { return weighted_merge_; }

  /// True when edges run over the framed wire (link given).
  bool framed() const { return transport_ != nullptr; }

  /// Channel counters summed over every edge of this subtree.  Safe to
  /// read between aggregations (each node's counters are written only by
  /// the round that runs it).
  net::ChannelStats channel_stats() const;

 protected:
  /// At the root (ws.rows_finite unset), sweeps the whole batch for
  /// non-finite values once, chunked over the dispatch width, before any
  /// child runs: a rejected batch advances no channel stream, and the
  /// children and leaves below never sweep their views again.  Then
  /// aggregates every child view (serially, or child-per-task on the
  /// process-wide ThreadPool when threads > 1), gathers the B results
  /// into the internal B×d merge arena — copied directly, or transferred
  /// edge-by-edge through the wire + channel when framed — then runs the
  /// merge stage through the caller's workspace.  Zero heap allocations
  /// after warmup on every path.  Throws std::runtime_error when the
  /// channel forced more than merge_f() zero substitutions this round.
  void aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const override;
  bool certifies_finite() const override { return true; }

 private:
  HierarchicalAggregator(const std::string& inner, const std::string& merge,
                         size_t n, size_t f, size_t levels, size_t branch,
                         size_t threads, const net::LinkConfig* link, uint64_t node_seed,
                         const std::string& node_path);

  size_t levels_;
  size_t branch_;
  size_t threads_;  ///< resolved: >= 1
  size_t child_f_ = 0;
  size_t merge_f_ = 0;
  bool weighted_merge_ = false;
  std::string inner_name_;
  std::string node_path_;  // "root", "root.2", … — names levels in errors
  std::vector<std::unique_ptr<Aggregator>> children_;
  /// children_[b] downcast when levels_ > 1 (for stats recursion).
  std::vector<const HierarchicalAggregator*> tree_children_;
  std::unique_ptr<Aggregator> merge_;
  /// This node's receiving end for all B child edges (null = in-memory
  /// copies).  Edges are driven serially in child order — see header.
  std::unique_ptr<net::EdgeTransport> transport_;
  mutable net::ChannelStats stats_;  // this node's edges only
  // Per-child scratch lives in the rule (the child count is a property
  // of the rule, not the call site), so one instance must not run
  // concurrent aggregations — the sequential-use rule
  // AggregatorWorkspace already imposes.
  // Their `threads` stay at the default 1: each child already runs in a
  // pool task (or serially under a serial budget).
  mutable std::vector<AggregatorWorkspace> child_ws_;  // task b owns slot b
  mutable GradientBatch child_aggregates_;             // B×d merge arena
};

}  // namespace dpbyz
