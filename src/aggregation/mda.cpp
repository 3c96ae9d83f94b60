#include "aggregation/mda.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregation/kf_table.hpp"
#include "math/statistics.hpp"
#include "utils/errors.hpp"

namespace dpbyz {

double Mda::subset_count(size_t n, size_t f) {
  // C(n, f) == C(n, n - f): number of candidate subsets of size n - f.
  double c = 1.0;
  const size_t k = std::min(f, n - f);
  for (size_t i = 1; i <= k; ++i)
    c = c * static_cast<double>(n - k + i) / static_cast<double>(i);
  return c;
}

Mda::Mda(size_t n, size_t f) : Aggregator(n, f) {
  require(f >= 1, "Mda: requires f >= 1 (use Average when f = 0)");
  require(n >= 2 * f + 1, "Mda: requires n >= 2f + 1");
  require(subset_count(n, f) <= kMaxSubsets,
          "Mda: C(n, n-f) exceeds the exact-search cap; use multi-krum for large n");
}

namespace {

/// Depth-first enumeration of size-m subsets with branch-and-bound on the
/// running diameter.  `dist` is the flat pairwise matrix of TRUE (square-
/// rooted) distances — not squared: sqrt rounding can collapse two
/// distinct squared diameters into one double, and on such a tie the
/// seed's >= prune keeps the earlier-enumerated subset while a squared-
/// value search would see a strict ordering and pick the other one,
/// breaking bit-identity.  The prune applies only once an incumbent
/// exists, so finite rows whose distances all overflow still yield the
/// first-enumerated subset; for finite diameters the order and tie-break
/// are the seed's.  `current` / `best` are caller-owned scratch so the
/// search allocates nothing.
struct SubsetSearch {
  SubsetSearch(std::span<const double> d, size_t n, size_t m, std::vector<size_t>& cur,
               std::vector<size_t>& bst)
      : dist(d), count(n), target(m), current(cur), best(bst) {
    current.clear();
    best.clear();
  }

  std::span<const double> dist;
  size_t count;   // total gradients
  size_t target;  // subset size m = n - f
  double best_diameter = std::numeric_limits<double>::infinity();
  std::vector<size_t>& current;
  std::vector<size_t>& best;

  void run() { descend(0, 0.0); }

  void descend(size_t next, double diameter) {
    if (current.size() == target) {
      // The first complete subset is always taken: when every distance
      // has overflowed to +inf, no subset beats the +inf sentinel.
      if (best.empty() || diameter < best_diameter) {
        best_diameter = diameter;
        best.assign(current.begin(), current.end());
      }
      return;
    }
    // Not enough remaining elements to fill the subset.
    if (count - next < target - current.size()) return;
    for (size_t i = next; i < count; ++i) {
      double new_diameter = diameter;
      for (size_t j : current)
        new_diameter = std::max(new_diameter, dist[j * count + i]);
      if (!best.empty() && new_diameter >= best_diameter) continue;  // prune
      current.push_back(i);
      descend(i + 1, new_diameter);
      current.pop_back();
    }
  }
};

}  // namespace

void Mda::select_subset_view(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  fill_certified_dist_sq(batch, ws);
  // Square-root in place: the search must compare the exact doubles the
  // seed implementation compared (see SubsetSearch).  MDA owns the
  // matrix for the rest of this call, so clobbering it is fine.
  for (double& x : ws.dist_sq) x = std::sqrt(x);

  SubsetSearch search(ws.dist_sq, count, count - f(), ws.active, ws.selected);
  search.run();
  check_internal(ws.selected.size() == count - f(), "Mda: subset search failed");
}

void Mda::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  select_subset_view(batch, ws);
  mean_rows_of_into(batch, ws.selected, ws.output);
}

double Mda::vn_threshold() const { return kf::mda(n(), f()); }

// ---- MdaGreedy ------------------------------------------------------------

MdaGreedy::MdaGreedy(size_t n, size_t f)
    : Aggregator(n, f) {
  require(f >= 1, "MdaGreedy: requires f >= 1 (use Average when f = 0)");
  require(n >= 2 * f + 1, "MdaGreedy: requires n >= 2f + 1");
}

double MdaGreedy::subset_diameter(std::span<const double> dist, size_t n,
                                  std::span<const size_t> subset) {
  double diameter = 0.0;
  for (size_t a = 0; a < subset.size(); ++a)
    for (size_t b = a + 1; b < subset.size(); ++b)
      diameter = std::max(diameter, dist[subset[a] * n + subset[b]]);
  return diameter;
}

void MdaGreedy::select_subset_view(const GradientBatch& batch,
                                   AggregatorWorkspace& ws) const {
  const size_t count = batch.rows();
  const size_t d = batch.dim();
  const size_t target = count - f();

  fill_certified_dist_sq(batch, ws);
  for (double& x : ws.dist_sq) x = std::sqrt(x);

  // Seed: distance of every row to the coordinate-wise median, computed
  // column by column so the only d-length scratch is the median itself.
  ws.scores.assign(count, 0.0);
  ws.column.resize(count);
  for (size_t c = 0; c < d; ++c) {
    for (size_t i = 0; i < count; ++i) ws.column[i] = batch.row(i)[c];
    const double med = stats::median_inplace(ws.column);
    for (size_t i = 0; i < count; ++i) {
      const double diff = batch.row(i)[c] - med;
      ws.scores[i] += diff * diff;
    }
  }
  ws.order.resize(count);
  for (size_t i = 0; i < count; ++i) ws.order[i] = i;
  std::sort(ws.order.begin(), ws.order.end(), [&](size_t a, size_t b) {
    if (ws.scores[a] != ws.scores[b]) return ws.scores[a] < ws.scores[b];
    return a < b;  // deterministic tie-break
  });
  ws.selected.assign(ws.order.begin(), ws.order.begin() + target);

  // ws.active doubles as the membership mask (1 = in subset).
  ws.active.assign(count, 0);
  for (size_t i : ws.selected) ws.active[i] = 1;
  std::span<const double> dist(ws.dist_sq);

  double diameter = subset_diameter(dist, count, ws.selected);

  // Steepest-descent 1-swaps: per pass, evaluate every (evictee r,
  // admittee o) pair — the new diameter is max(diam(S \ {r}), the
  // admittee's farthest member of S \ {r}) — and take the best strict
  // improvement.  The diameter strictly decreases per pass, so the loop
  // terminates; the pass cap is a safety net, not a tuning knob.
  for (size_t pass = 0; pass < 4 * count; ++pass) {
    double best_diameter = diameter;
    size_t best_r = count, best_o = count;
    for (size_t ri = 0; ri < ws.selected.size(); ++ri) {
      const size_t r = ws.selected[ri];
      // diam(S \ {r}), one O(|S|²) scan reused across every admittee.
      double without = 0.0;
      for (size_t a = 0; a < ws.selected.size(); ++a) {
        if (a == ri) continue;
        for (size_t b = a + 1; b < ws.selected.size(); ++b) {
          if (b == ri) continue;
          without = std::max(without, dist[ws.selected[a] * count + ws.selected[b]]);
        }
      }
      for (size_t o = 0; o < count; ++o) {
        if (ws.active[o]) continue;
        double cand = without;
        for (size_t a = 0; a < ws.selected.size(); ++a) {
          if (a == ri) continue;
          cand = std::max(cand, dist[o * count + ws.selected[a]]);
          if (cand >= best_diameter) break;  // cannot beat the incumbent
        }
        if (cand < best_diameter) {
          best_diameter = cand;
          best_r = r;
          best_o = o;
        }
      }
    }
    if (best_r == count) break;  // local minimum
    ws.active[best_r] = 0;
    ws.active[best_o] = 1;
    for (size_t& s : ws.selected)
      if (s == best_r) s = best_o;
    diameter = best_diameter;
  }

  std::sort(ws.selected.begin(), ws.selected.end());
  check_internal(ws.selected.size() == target, "MdaGreedy: subset search failed");
}

void MdaGreedy::aggregate_into(const GradientBatch& batch, AggregatorWorkspace& ws) const {
  select_subset_view(batch, ws);
  mean_rows_of_into(batch, ws.selected, ws.output);
}

}  // namespace dpbyz
