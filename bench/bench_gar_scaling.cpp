// bench_gar_scaling — the GradientBatch refactor's headline numbers.
//
// Sweeps (n, d) in {10, 25, 50} x {1e3, 1e4, 1e5} over Krum / MDA /
// Bulyan / average and, for every admissible configuration, measures
//   * the view-based batch kernel (aggregate(GradientBatch, workspace)),
//   * the seed implementation preserved in aggregation/reference_gars,
//   * the number of heap allocations one batch-path call performs AFTER
//     the workspace has warmed up (counted by overriding global
//     operator new — must be zero),
//   * bit-identity of the two outputs.
//
// A second sweep measures the sharded topology — the one-level
// aggregation tree with B = S children: Krum and MDA at n = 50, d = 1e4,
// S in {1, 2, 4, 8} (inadmissible (f, S) pairs are skipped with a note —
// see docs/ARCHITECTURE.md on the merge-stage budget), reporting
// wall-clock speedup of sharded vs the flat rule at the same (n, f) and
// asserting the S = 1 path is bit-identical to flat.
//
// A third sweep measures the FULL training step (the worker→server
// pipeline): n honest workers sample / compute / clip / DP-noise into the
// round arena, the server aggregates and updates.  For each configuration
// it reports
//   * allocations per steady-state step on the serial path (must be 0 —
//     the PR-3 _into rewire),
//   * wall-clock per step for the serial loop, for worker submission on
//     the persistent ThreadPool, and for the per-call std::thread spawn
//     dispatch the pool replaced (re-implemented locally for comparison),
//   * whether a threaded trainer run is bit-identical to the serial run.
//
// A fourth sweep measures the round engine's slot ring
// (core/pipeline.hpp) at n = 50, d = 1e4, one row per depth k in
// {0, 1, 2, 4}, every depth at the same resolved thread budget (written
// into each row): per-step wall-clock, the fill-wait / fill-busy /
// aggregate / apply phase split (RunResult::phase — wait is blocked
// time only, busy − wait is the overlap the ring bought), steady-state
// allocations per step, bit-identity of the depth-0 engine's fill order
// against the synchronous loop, and per-depth determinism across reruns
// and thread widths.  The headline column is step / (fill_busy +
// aggregate): < 1 means the overlap beats the serial sum — only
// physically possible with >= 2 cores, so the JSON records the host's
// core count next to the ratio.  A companion convergence-vs-staleness
// study records what the overlap costs: per GAR (average / krum / mda /
// median) x depth on the phishing-like task under the "little" attack
// (final accuracy/loss, min loss, steps-to-min), plus the Theorem-1
// strongly-convex quadratic's exact excess loss per depth.
//
// A fifth probe checks the pairwise kernel (math/kernels.hpp) at a
// threaded extent: the matrix must be bit-identical at threads = 1 and
// threads = 4.  The JSON records which backend the binary *selected at
// runtime* ("avx2" / "unrolled8").  Its colluding-copies case runs the
// selection rules' fill_dist_sq at krum_exact_n200's extent, (n, d) =
// (200, 10001) with f = 20 colluding rows (one forged row and 19 bitwise
// copies, as the trainer writes them): the matrix must equal a
// brute-force vec::dist_sq matrix bit for bit at widths 1 and 4, and the
// JSON records its ms next to pairwise_dist_sq's over all 200 rows.
//
// A forge sweep times the ALIE forge (mean − ν·σ over the observed rows,
// math/gradient_batch.hpp's column_moments_into) at the e2e shapes
// (rows, d) = (180, 10001) and (990, 1001): the seed's two-pass loops
// (re-implemented here), the tiled kernel on one thread, and at the
// resolved thread budget.  Its gates: the threaded forge is bit-equal to
// the serial one and to stats::coordinate_mean / coordinate_stddev, and
// allocates nothing after warmup.
//
// A sixth sweep measures the hierarchical aggregation tree and the
// framed wire format (aggregation/hierarchical.hpp, src/net/): flat vs
// sharded S = 4 (the tree at L = 1, B = 4) vs tree (L = 2, B = 8) per
// GAR at n in {50, 200, 1000} (inadmissible cells — 64 leaves exceed
// n = 50, krum on 3-row leaves — and the intractable flat-MDA cells are
// recorded with their reasons, not hidden), the L = 1 tree's gates —
// bit-identity to the pinned outputs of the retired two-level sharded
// aggregator, and of the ideal framed link to the in-memory tree — and
// per wire mode the encode/decode throughput,
// bytes per row/round, codec allocation count, and the checksum gates.
//
// A seventh sweep measures elastic membership epochs (core/membership.hpp)
// on the churn-stress config (phishing task, median, "little", n = 11,
// f = 3): rounds/s and allocs/step at churn off vs zero-probability
// epochs vs moderate (join 0.6 / leave 0.1) vs high (0.9 / 0.3) churn —
// the epoch rows amortize one boundary into the allocation window so
// renegotiation cost is counted — plus the per-boundary renegotiation
// overhead (zero-prob E = 5 vs off: the median of alternating run pairs
// with its quartiles, null when they span zero) and the per-checkpoint
// write cost.
// Four contracts ride along: churn-off steady state stays
// allocation-free, zero-probability epochs are trajectory-inert,
// checkpoint writes never perturb a run, and a kill-at-half/restore run
// is bit-identical to the uninterrupted one.
//
// Results go to stdout as a table and to BENCH_gar_scaling.json in the
// working directory.  Flags: --fast (skip d = 1e5 and the n = 1000
// tree cells), --budget-ms M (per-measurement time budget, default
// 300), --check (exit nonzero on any correctness/allocation regression:
// non-identical outputs, nonzero steady-state allocs, engine depth-0
// drift, depth-k nondeterminism, a pairwise matrix that drifts across
// thread widths, an ALIE forge that drifts across thread widths or from
// the stats reference or allocates, an L = 1 tree diverging from the
// pinned sharded outputs or the framed tree from the in-memory one, a
// wire codec that allocates, fails the raw64 byte-exact round trip,
// passes a corrupted frame, breaks the int8 error contract, a churn-off
// trainer that allocates at steady state, a zero-probability churn
// epoch that perturbs the trajectory, a checkpoint write that perturbs
// a run, or a kill/restore cycle that loses bit-identity — the CI smoke
// step runs this so perf-path regressions fail PRs).
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "aggregation/aggregator.hpp"
#include "aggregation/hierarchical.hpp"
#include "aggregation/mda.hpp"
#include "aggregation/reference_gars.hpp"
#include "attacks/little_is_enough.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "core/experiment.hpp"
#include "core/server.hpp"
#include "core/trainer.hpp"
#include "core/worker.hpp"
#include "data/synthetic.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "dp/mechanism.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "math/rng.hpp"
#include "math/statistics.hpp"
#include "math/vector_ops.hpp"
#include "models/linear_model.hpp"
#include "models/optimizer.hpp"
#include "utils/parallel.hpp"

#if defined(__clang__)
#define DPBYZ_BENCH_COMPILER __VERSION__
#else
#define DPBYZ_BENCH_COMPILER "gcc " __VERSION__
#endif

// ---- global allocation counter -------------------------------------------
// Replacing the global allocation functions lets the bench *prove* the
// zero-allocation claim instead of asserting it.  Counting is toggled only
// around the measured call.

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// GCC pattern-matches inlined std::allocator news in this TU against the
// replaced (non-std) deallocation functions below and mis-flags them as
// mismatched pairs.  Every replacement routes through malloc/free, so
// any new/delete pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// ---- bench ----------------------------------------------------------------

namespace {

using dpbyz::GradientBatch;
using dpbyz::Rng;
using dpbyz::Vector;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Vector> make_gradients(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector v = rng.normal_vector(d, 1.0);
    v[0] += 1.0;
    g.push_back(std::move(v));
  }
  return g;
}

Vector run_reference(const std::string& gar, std::span<const Vector> g, size_t n, size_t f) {
  if (gar == "average") return dpbyz::reference::average(g);
  if (gar == "krum") return dpbyz::reference::krum(g, f);
  if (gar == "mda") return dpbyz::reference::mda(g, f);
  if (gar == "bulyan") return dpbyz::reference::bulyan(g, n, f);
  throw std::invalid_argument("run_reference: unknown GAR '" + gar + "'");
}

/// Largest admissible f per rule at this n (MDA capped so the exact
/// subset search stays tractable across the whole sweep).
size_t pick_f(const std::string& gar, size_t n) {
  if (gar == "average") return 0;
  if (gar == "krum") return (n - 3) / 2;
  if (gar == "bulyan") return (n - 3) / 4;
  if (gar == "mda") return 2;
  return 0;
}

/// 64-bit FNV-1a over the bit patterns of `v` (the tree gates' pins).
uint64_t bits_digest(std::span<const double> v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : v) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Median wall time of one call, with `budget_s` seconds to spend.
template <typename Fn>
double time_call(Fn fn, double budget_s) {
  // One untimed call decides how many reps the budget affords.
  const auto probe_start = Clock::now();
  fn();
  const double probe = seconds_since(probe_start);
  size_t reps = probe > 0 ? static_cast<size_t>(budget_s / probe) : 50;
  if (reps < 1) reps = 1;
  if (reps > 50) reps = 50;

  std::vector<double> times(reps);
  for (size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    times[r] = seconds_since(start);
  }
  std::sort(times.begin(), times.end());
  return times[reps / 2];
}

/// The fifth probe's colluding-copies case (see the header).
struct CollusionProbe {
  size_t n = 200, d = 10001, colluding = 20, threads = 4;
  size_t distinct = 0;
  double full_s = 0, distinct_s = 0;  // pairwise_dist_sq / fill_dist_sq, median
  bool identical = true;  // fill_dist_sq == brute force at threads 1 and 4, bitwise
};

struct Row {
  std::string gar;
  size_t n, d, f;
  double new_s, ref_s;
  size_t allocs;
  bool identical;
};

struct ShardRow {
  std::string gar;
  size_t n, d, f, shards, shard_f, merge_f;
  double sharded_s, flat_s;
  size_t allocs;
  bool s1_identical;  // measured at shards == 1 only (false/unused, emitted as null, elsewhere)
};

struct PipelineRow {
  std::string mechanism, gar;
  size_t n, d, threads;
  double allocs_per_step;  // serial steady-state (must be 0)
  double serial_step_s, pool_step_s, spawn_step_s;
  bool threaded_identical;  // pool-backed trainer == serial trainer, bit-for-bit
};

struct ForgeRow {
  size_t rows, d, threads;  // threads: the resolved budget of the threaded column
  double seed_s, serial_s, threaded_s;  // one forge, median
  size_t allocs;        // serial + threaded forge after warmup, must be 0
  bool identical;       // threaded == serial, bitwise
  bool stats_identical;  // serial == coordinate_mean - nu * coordinate_stddev
};

struct DepthRow {
  std::string gar;
  size_t depth;  // ring depth k (staleness bound)
  size_t n, d, f, cores, threads;  // threads: the one resolved budget of every depth
  double step_s;                                    // wall-clock per step
  double fill_wait_s, fill_busy_s, agg_s, apply_s;  // per-step phase split
  double allocs;                                    // steady-state, per step
  bool engine_identical;  // depth 0 only: iid p=1 == full fill order (else true)
  bool deterministic;     // rerun + other thread width bit-equal
};

struct StalenessRow {
  std::string gar;
  size_t depth;
  double final_accuracy, final_loss, min_loss;
  size_t steps_to_min;
};

struct QuadStalenessRow {
  size_t depth;
  double excess_loss;  // Theorem-1 task: Q(w_{T+1}) - Q*, mean over seeds
};

struct TreeRow {
  std::string gar, topology;  // "flat" | "sharded(S=4)" | "tree(L=2,B=8)"
  size_t n, d, f;
  double ms = 0.0;
  size_t allocs = 0;
  std::string note;  // nonempty = cell skipped (infeasible / intractable)
};

/// Correctness gates of the hierarchical/wire refactor, asserted under
/// --check per inner GAR: the L = 1 tree must be bit-identical to the
/// pinned output of the retired sharded aggregator at the same
/// (n, f, S = B), the tree over the ideal framed link must equal the
/// in-memory tree, and the framed steady state must be allocation-free.
struct TreeGateRow {
  std::string gar;
  size_t n, f, branch;
  bool l1_identical;         // in-memory tree == sharded pin, bit-for-bit
  bool l1_framed_identical;  // ideal raw64 edges == in-memory tree
  size_t framed_allocs;      // steady-state allocs of one framed aggregate
};

struct WireRow {
  std::string mode;  // raw64 | int8
  size_t d, bytes_per_row, frames_per_row;
  double encode_ms, decode_ms;      // one full row, median
  size_t codec_allocs;              // encode+decode cycle after warmup
  bool round_trip_exact;            // decoded row == source (raw64 only)
  bool corrupt_rejected;            // one flipped byte fails the checksum
  double max_abs_err;               // decoded vs source (int8)
  uint64_t tree_bytes_per_round;    // framed L=1 B=4 n=48 tree, one round
};

/// Alternating run pairs behind churn_renegotiation_ms_per_boundary.
constexpr size_t kRenegPairs = 11;

/// Median and quartiles of a set of paired differences.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  /// False when the quartile range spans zero: the sign is noise.
  bool resolved() const { return q1 > 0.0 || q3 < 0.0; }
};

/// One elastic-membership training run on the phishing task (median GAR,
/// "little" attack, n = 11, f = 3 — the churn-stress tool's config).
/// The allocs column amortizes one epoch boundary into its 20-step
/// window for the epoch rows, so renegotiation cost is included rather
/// than dodged; the churn-off row's steady state is gated at zero.
struct ChurnRow {
  std::string churn;  // "off" | "epoch:<E>x<join>x<leave>"
  size_t epoch_rounds;
  double join_prob, leave_prob;
  size_t rounds;       // trained rounds
  size_t events;       // applied churn-trace length
  size_t final_rows;   // last round's aggregated row count (h_e + f_e)
  double step_s;       // wall-clock per round, one full run
  double allocs;       // per step; epoch rows amortize one boundary
  bool off_identical;  // zero-prob epoch row: bitwise == churn-off run
};

/// The seed's two-pass ALIE forge (mean pass, then σ pass, each over
/// the whole arena) — kept here (only) so the tiled kernel's win is
/// measured, not asserted.
void seed_alie_forge(const GradientBatch& batch, size_t rows, double nu,
                     std::span<double> out, std::span<double> sigma) {
  dpbyz::vec::fill(out, 0.0);
  for (size_t i = 0; i < rows; ++i) dpbyz::vec::add_inplace(out, batch.row(i));
  const double inv_n = 1.0 / static_cast<double>(rows);
  dpbyz::vec::scale_inplace(out, inv_n);
  dpbyz::vec::fill(sigma, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    const auto r = batch.row(i);
    for (size_t c = 0; c < r.size(); ++c) {
      const double diff = r[c] - out[c];
      sigma[c] += diff * diff;
    }
  }
  for (double& x : sigma) x = std::sqrt(x * inv_n);
  dpbyz::vec::axpy_inplace(out, -nu, sigma);
}

/// The per-call std::thread dispatch the persistent pool replaced — kept
/// here (only) so the pool's spawn-cost win is measured, not asserted.
template <typename Fn>
void spawn_dispatch(size_t count, Fn fn, size_t threads) {
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> spawned;
  spawned.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    spawned.emplace_back([&] {
      while (true) {
        const size_t i = cursor.fetch_add(1);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  for (auto& th : spawned) th.join();
}

/// One full worker→server training-step harness over the paper-shaped
/// linear task (d = 69), reused across the measurement modes.
struct PipelineHarness {
  dpbyz::Dataset data;
  dpbyz::LinearModel model;
  dpbyz::GaussianMechanism mechanism;
  std::vector<dpbyz::HonestWorker> workers;
  dpbyz::ParameterServer server;
  GradientBatch submissions;
  size_t t = 1;

  PipelineHarness(size_t n, const std::string& gar, size_t batch_size)
      : data(dpbyz::make_phishing_like(dpbyz::PhishingLikeConfig{}, 42)),
        model(dpbyz::PhishingLikeConfig{}.num_features, dpbyz::LinearLoss::kMseOnSigmoid),
        mechanism(dpbyz::GaussianMechanism::for_clipped_gradients(0.2, 1e-6, 1e-2,
                                                                  batch_size)),
        server(dpbyz::make_aggregator(gar, n, gar == "average" ? 0 : 2),
               dpbyz::SgdOptimizer(model.dim(), dpbyz::constant_lr(2.0), 0.99),
               model.initial_parameters()),
        submissions(n, model.dim()) {
    Rng root(1);
    workers.reserve(n);
    for (size_t i = 0; i < n; ++i)
      workers.emplace_back(model, data, batch_size, 1e-2, mechanism,
                           root.derive("worker-" + std::to_string(i)));
  }

  /// One synchronous round; threads == 1 is the serial loop, "pool" mode
  /// dispatches submission on the shared ThreadPool, "spawn" mode on
  /// per-call std::threads.
  void step(size_t threads, bool use_spawn) {
    const Vector& w = server.parameters();
    auto submit = [&](size_t i) { workers[i].submit_into(w, submissions.row(i)); };
    if (threads <= 1) {
      for (size_t i = 0; i < workers.size(); ++i) submit(i);
    } else if (use_spawn) {
      spawn_dispatch(workers.size(), submit, threads);
    } else {
      dpbyz::ThreadPool::shared().run(workers.size(), submit, threads);
    }
    server.aggregate_with(server.gar(), submissions);
    server.apply(t++);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  bool check = false;
  double budget_ms = 300.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc)
      budget_ms = std::atof(argv[++i]);
  }
  const double budget_s = budget_ms / 1000.0;

  const std::vector<std::string> gars{"average", "krum", "mda", "bulyan"};
  const std::vector<size_t> ns{10, 25, 50};
  std::vector<size_t> ds{1000, 10000, 100000};
  if (fast) ds.pop_back();

  std::vector<Row> rows;
  std::printf("%-8s %4s %7s %4s | %12s %12s %8s | %7s %10s\n", "gar", "n", "d", "f",
              "batch (ms)", "seed (ms)", "speedup", "allocs", "identical");
  std::printf("---------------------------------------------------------------------------------\n");

  for (const auto& gar : gars) {
    for (size_t n : ns) {
      for (size_t d : ds) {
        const size_t f = pick_f(gar, n);
        if (gar != "average" && f == 0) continue;
        if (gar == "mda" && dpbyz::Mda::subset_count(n, f) > dpbyz::Mda::kMaxSubsets)
          continue;

        const auto gradients = make_gradients(n, d, 42);
        const GradientBatch batch = GradientBatch::from_vectors(gradients);
        const auto agg = dpbyz::make_aggregator(gar, n, f);
        dpbyz::AggregatorWorkspace ws;

        // Warm up the workspace, then prove the steady state is
        // allocation-free.
        agg->aggregate(batch, ws);
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        agg->aggregate(batch, ws);
        g_count_allocs.store(false);
        const size_t allocs = g_alloc_count.load();

        const auto view = agg->aggregate(batch, ws);
        const Vector got(view.begin(), view.end());
        const Vector want = run_reference(gar, gradients, n, f);
        const bool identical = got == want;

        const double new_s =
            time_call([&] { agg->aggregate(batch, ws); }, budget_s);
        // The seed aggregate() validated finiteness/dimensions on every
        // call before running the GAR, and the batch path above still
        // does; include that cost on the reference side for a
        // like-for-like comparison.
        const double ref_s = time_call(
            [&] {
              for (const Vector& g : gradients)
                if (g.size() != d || !dpbyz::vec::all_finite(g))
                  throw std::invalid_argument("malformed gradient");
              run_reference(gar, gradients, n, f);
            },
            budget_s);

        rows.push_back({gar, n, d, f, new_s, ref_s, allocs, identical});
        std::printf("%-8s %4zu %7zu %4zu | %12.3f %12.3f %7.2fx | %7zu %10s\n",
                    gar.c_str(), n, d, f, new_s * 1e3, ref_s * 1e3, ref_s / new_s,
                    allocs, identical ? "yes" : "NO");
        std::fflush(stdout);
      }
    }
  }

  // ---- shard sweep: the sharded topology (tree L = 1) vs the flat rule ---
  // f is fixed per GAR so flat and sharded solve the same (n, f) problem:
  // Krum takes f = 5 (admissible down to 6-row shards at f_shard = 1),
  // MDA keeps the sweep's f = 2.  The O(n²d/S) distance work is what the
  // speedup column tracks; S values whose worst-case merge budget is
  // inadmissible (e.g. S = 2 needs a median over 2 values tolerating 1
  // corrupted shard) are skipped — that is the documented price of the
  // worst-case f split, not a measurement gap.
  std::vector<ShardRow> shard_rows;
  {
    const size_t n = 50, d = 10000;
    const std::vector<size_t> shard_counts{1, 2, 4, 8};
    std::printf("\n%-8s %4s %7s %4s %3s | %6s %6s | %12s %12s %8s | %7s %10s\n", "gar",
                "n", "d", "f", "S", "f_shd", "f_mrg", "sharded (ms)", "flat (ms)",
                "speedup", "allocs", "s1 ident");
    std::printf(
        "--------------------------------------------------------------------------"
        "-----------------\n");
    for (const auto& gar : std::vector<std::string>{"krum", "mda"}) {
      const size_t f = gar == "krum" ? 5 : 2;
      const auto gradients = make_gradients(n, d, 42);
      const GradientBatch batch = GradientBatch::from_vectors(gradients);
      const auto flat = dpbyz::make_aggregator(gar, n, f);
      dpbyz::AggregatorWorkspace flat_ws;
      const double flat_s = time_call([&] { flat->aggregate(batch, flat_ws); }, budget_s);
      const auto flat_view = flat->aggregate(batch, flat_ws);
      const Vector flat_out(flat_view.begin(), flat_view.end());

      for (size_t S : shard_counts) {
        // Stack-constructed (optional, not make_unique): heap-allocating
        // through this TU's replaced operator new trips GCC's
        // -Wmismatched-new-delete heuristic.
        std::optional<dpbyz::HierarchicalAggregator> sharded;
        try {
          sharded.emplace(gar, "median", n, f, /*levels=*/1, /*branch=*/S);
        } catch (const std::invalid_argument& e) {
          std::printf("%-8s %4zu %7zu %4zu %3zu | skipped (inadmissible: %s)\n",
                      gar.c_str(), n, d, f, S, e.what());
          continue;
        }
        dpbyz::AggregatorWorkspace ws;

        sharded->aggregate(batch, ws);  // warm up the workspace pool
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        sharded->aggregate(batch, ws);
        g_count_allocs.store(false);
        const size_t allocs = g_alloc_count.load();

        // Bit-identity to the flat rule is only claimed (and only
        // meaningful) at S = 1; S > 1 rows report null in the JSON.
        bool s1_identical = false;
        if (S == 1) {
          const auto view = sharded->aggregate(batch, ws);
          s1_identical = Vector(view.begin(), view.end()) == flat_out;
        }

        const double sharded_s =
            time_call([&] { sharded->aggregate(batch, ws); }, budget_s);
        shard_rows.push_back({gar, n, d, f, S, sharded->child_f(), sharded->merge_f(),
                              sharded_s, flat_s, allocs, s1_identical});
        std::printf("%-8s %4zu %7zu %4zu %3zu | %6zu %6zu | %12.3f %12.3f %7.2fx | "
                    "%7zu %10s\n",
                    gar.c_str(), n, d, f, S, sharded->child_f(), sharded->merge_f(),
                    sharded_s * 1e3, flat_s * 1e3, flat_s / sharded_s, allocs,
                    S > 1 ? "-" : (s1_identical ? "yes" : "NO"));
        std::fflush(stdout);
      }
    }
  }

  // ---- pairwise kernel: bit-identity across thread widths ----------------
  // Probed at an extent that actually clears the parallel-dispatch
  // threshold: 1225 * 16384 = 20.1M pair-coordinates > 2^24, so the
  // threads = 4 call genuinely runs on the ThreadPool.  Runs under --fast
  // too: this is the CI smoke's only threaded-pairwise gate.
  bool scalar_pairwise_threads_identical = true;
  {
    const size_t n = 50, probe_d = 16384;
    const auto probe_gradients = make_gradients(n, probe_d, 42);
    const GradientBatch probe = GradientBatch::from_vectors(probe_gradients);
    std::vector<double> pw_serial(n * n), pw_threaded(n * n);
    dpbyz::pairwise_dist_sq(probe, pw_serial, 1);
    dpbyz::pairwise_dist_sq(probe, pw_threaded, 4);
    scalar_pairwise_threads_identical = pw_serial == pw_threaded;
    std::printf("\npairwise backend: %s  (threaded pairwise bit-identical: %s)\n",
                dpbyz::kernels::fast_backend(),
                scalar_pairwise_threads_identical ? "yes" : "NO");
  }
  // The colluding-copies case: the last f rows are one forged row and its
  // copies, so fill_dist_sq pairs n - f + 1 distinct rows.
  CollusionProbe collusion;
  {
    const size_t n = collusion.n, d = collusion.d, f = collusion.colluding;
    GradientBatch probe = GradientBatch::from_vectors(make_gradients(n, d, 43));
    for (size_t r = n - f + 1; r < n; ++r)
      dpbyz::vec::copy(probe.row(n - f), probe.row(r));
    std::vector<double> brute(n * n, 0.0);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j)
        if (i != j) brute[i * n + j] = dpbyz::vec::dist_sq(probe.row(i), probe.row(j));
    dpbyz::AggregatorWorkspace ws;
    for (const size_t threads : {1, 4}) {
      ws.threads = threads;
      dpbyz::fill_dist_sq(probe, ws);
      collusion.identical = collusion.identical && ws.dist_sq.size() == n * n &&
                            std::memcmp(ws.dist_sq.data(), brute.data(),
                                        n * n * sizeof(double)) == 0;
    }
    collusion.distinct = ws.distinct.size();
    std::vector<double> full(n * n);
    collusion.full_s =
        time_call([&] { dpbyz::pairwise_dist_sq(probe, full, collusion.threads); }, budget_s);
    ws.threads = collusion.threads;
    collusion.distinct_s = time_call([&] { dpbyz::fill_dist_sq(probe, ws); }, budget_s);
    std::printf("colluding pairwise n=%zu d=%zu f=%zu (%zu distinct) threads=%zu: "
                "all rows %.3f ms, distinct rows %.3f ms  (bit-identical: %s)\n",
                n, d, f, collusion.distinct, collusion.threads, collusion.full_s * 1e3,
                collusion.distinct_s * 1e3, collusion.identical ? "yes" : "NO");
  }

  // ---- forge sweep: the ALIE forge's column statistics -------------------
  // The two shapes the e2e workloads forge at: krum_exact_n200 observes
  // 180 honest rows of d = 10001, dp_tree_n1000 990 rows of d = 1001.
  // The forged row sits right behind the observed prefix, as in a round.
  std::vector<ForgeRow> forge_rows;
  {
    const size_t budget = dpbyz::resolve_threads(0);
    const double nu = 1.5;
    const dpbyz::ALittleIsEnough alie(nu);
    std::printf("\n%6s %6s %7s | %9s %9s %9s | %8s %8s | %6s %9s %6s\n", "rows", "d",
                "threads", "seed(ms)", "1T(ms)", "NT(ms)", "1T/seed", "NT/seed",
                "allocs", "identical", "stats");
    std::printf("---------------------------------------------------------------------------"
                "--------------\n");
    for (const auto& [rows, d] : {std::pair<size_t, size_t>{180, 10001}, {990, 1001}}) {
      const auto gradients = make_gradients(rows + 1, d, 7);
      GradientBatch batch = GradientBatch::from_vectors(gradients);
      Rng rng(1);
      const dpbyz::AttackContext serial_ctx{batch, rows, 1, 1, 0, 1};
      const dpbyz::AttackContext threaded_ctx{batch, rows, 1, 1, 0, budget};
      const std::span<double> out = batch.row(rows);
      Vector serial(d), sigma(d);

      alie.forge_into(threaded_ctx, rng, out);  // warm the pool and sigma scratch
      alie.forge_into(serial_ctx, rng, out);
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      alie.forge_into(serial_ctx, rng, out);
      dpbyz::vec::copy(out, serial);
      alie.forge_into(threaded_ctx, rng, out);
      g_count_allocs.store(false);
      const size_t allocs = g_alloc_count.load();
      const bool identical = Vector(out.begin(), out.end()) == serial;

      const std::span<const Vector> observed(gradients.data(), rows);
      Vector want = dpbyz::stats::coordinate_mean(observed);
      dpbyz::vec::axpy_inplace(want, -nu, dpbyz::stats::coordinate_stddev(observed));
      const bool stats_identical = serial == want;

      const double seed_s =
          time_call([&] { seed_alie_forge(batch, rows, nu, out, sigma); }, budget_s);
      const double serial_s = time_call([&] { alie.forge_into(serial_ctx, rng, out); }, budget_s);
      const double threaded_s =
          time_call([&] { alie.forge_into(threaded_ctx, rng, out); }, budget_s);
      forge_rows.push_back({rows, d, budget, seed_s, serial_s, threaded_s, allocs, identical,
                            stats_identical});
      std::printf("%6zu %6zu %7zu | %9.3f %9.3f %9.3f | %7.2fx %7.2fx | %6zu %9s %6s\n",
                  rows, d, budget, seed_s * 1e3, serial_s * 1e3, threaded_s * 1e3,
                  seed_s / serial_s, seed_s / threaded_s, allocs, identical ? "yes" : "NO",
                  stats_identical ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  // ---- pipeline sweep: the full worker→server step -----------------------
  // d = 69 linear task at paper batch sizes; the serial path must be
  // allocation-free at steady state (the PR-3 _into rewire), and the
  // pool dispatch must beat per-call thread spawn.  Thread width for the
  // threaded modes: min(4, hardware).
  std::vector<PipelineRow> pipeline_rows;
  {
    // A fixed dispatch width of 4: on wide hosts the threaded modes show
    // the parallel win, on narrow ones they still measure what the pool
    // exists for — per-step dispatch overhead (persistent wake/join vs
    // 4 fresh std::thread clones every step).
    const size_t threads = 4;
    std::printf("\n%-10s %-8s %4s %4s %3s | %11s | %11s %11s %11s | %9s | %9s\n",
                "mechanism", "gar", "n", "d", "T", "allocs/step", "serial (ms)",
                "pool (ms)", "spawn (ms)", "pool/spwn", "thr ident");
    std::printf(
        "--------------------------------------------------------------------------"
        "--------------------------\n");
    dpbyz::ThreadPool::shared();  // warm the pool outside any measurement

    for (const auto& [gar, n] : std::vector<std::pair<std::string, size_t>>{
             {"average", 11}, {"mda", 11}, {"mda", 25}}) {
      const size_t batch_size = 50;

      // Serial steady-state allocation count, over 5 steps after warmup.
      PipelineHarness counted(n, gar, batch_size);
      for (int s = 0; s < 3; ++s) counted.step(1, false);
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      for (int s = 0; s < 5; ++s) counted.step(1, false);
      g_count_allocs.store(false);
      const double allocs_per_step = static_cast<double>(g_alloc_count.load()) / 5.0;

      // Wall-clock per step for the three dispatch modes.  One harness
      // per mode: each advances its own worker RNG streams; the per-step
      // work is identical, which is all a timing comparison needs.
      PipelineHarness serial_h(n, gar, batch_size);
      serial_h.step(1, false);
      const double serial_s = time_call([&] { serial_h.step(1, false); }, budget_s);
      PipelineHarness pool_h(n, gar, batch_size);
      pool_h.step(threads, false);
      const double pool_s = time_call([&] { pool_h.step(threads, false); }, budget_s);
      PipelineHarness spawn_h(n, gar, batch_size);
      spawn_h.step(threads, true);
      const double spawn_s = time_call([&] { spawn_h.step(threads, true); }, budget_s);

      // Pool-backed threaded trainer must be bit-identical to serial —
      // checked on a real Trainer run (short, but long enough that any
      // divergence would compound into the parameters).
      dpbyz::ExperimentConfig config;
      config.num_workers = n;
      config.num_byzantine = gar == "average" ? 0 : 2;
      config.gar = gar;
      config.steps = 20;
      config.eval_every = 20;
      config.batch_size = 10;
      config.dp_enabled = true;
      config.epsilon = 0.2;
      config.threads = 1;
      const dpbyz::LinearModel& model = serial_h.model;
      const dpbyz::Dataset& data = serial_h.data;
      const auto serial_run = dpbyz::Trainer(config, model, data, data).run();
      config.threads = threads;
      const auto threaded_run = dpbyz::Trainer(config, model, data, data).run();
      const bool identical =
          serial_run.final_parameters == threaded_run.final_parameters &&
          serial_run.train_loss == threaded_run.train_loss;

      pipeline_rows.push_back({"gaussian", gar, n, serial_h.model.dim(), threads,
                               allocs_per_step, serial_s, pool_s, spawn_s, identical});
      std::printf("%-10s %-8s %4zu %4zu %3zu | %11.1f | %11.4f %11.4f %11.4f | "
                  "%8.2fx | %9s\n",
                  "gaussian", gar.c_str(), n, serial_h.model.dim(), threads,
                  allocs_per_step, serial_s * 1e3, pool_s * 1e3, spawn_s * 1e3,
                  spawn_s / pool_s, identical ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  // ---- pipeline-depth sweep: the ring engine's overlap --------------------
  // n = 50, d = 1e4, MDA at f = 2: a task where the fill (n worker
  // pipelines at b × d work each) and the O(n²d) aggregation are the
  // same order of magnitude — the shape the ring exists for.  One row
  // per depth k in {0, 1, 2, 4}: per-step wall-clock, the phase split
  // (fill wait vs fill busy vs aggregate vs apply — wait < busy is the
  // overlap win), steady-state allocations, and determinism across a
  // rerun and the other thread width.  The depth-0 row additionally
  // carries the engine-identity gate (iid participation at p = 1 must
  // be bit-equal to the default full-participation run).
  std::vector<DepthRow> depth_rows;
  {
    const size_t n = 50, d = 10000, f = 2;
    const size_t steps = fast ? 10 : 20;
    const size_t cores = std::max(1u, std::thread::hardware_concurrency());
    // Every depth runs at the one resolved budget, so the rows compare
    // depths and nothing else.
    const size_t threads = dpbyz::resolve_threads(0);

    dpbyz::BlobsConfig bc;
    bc.num_samples = 256;
    bc.num_features = d;
    bc.separation = 4.0;
    const dpbyz::Dataset data = dpbyz::make_blobs(bc, 42);
    const dpbyz::LinearModel model(d, dpbyz::LinearLoss::kMseOnSigmoid);

    dpbyz::ExperimentConfig cfg;
    cfg.num_workers = n;
    cfg.num_byzantine = f;
    cfg.gar = "mda";
    cfg.batch_size = 10;
    cfg.steps = steps;
    cfg.eval_every = steps;  // accuracy only at the final step

    auto run_cfg = [&](const dpbyz::ExperimentConfig& c) {
      return dpbyz::Trainer(c, model, data, data).run();
    };
    // Steady-state allocations per step, isolated as the alloc-count
    // difference between a (steps) and a (steps + 20) run: construction,
    // reserves (k + 1 ring arenas included), the single final eval and
    // the GAR-cache warmup all happen once in each run and cancel in the
    // difference.
    auto allocs_per_step = [&](dpbyz::ExperimentConfig c) {
      auto counted = [&](size_t s) {
        c.steps = s;
        c.eval_every = s;
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        run_cfg(c);
        g_count_allocs.store(false);
        return g_alloc_count.load();
      };
      const size_t base = counted(5);
      const size_t longer = counted(25);
      return static_cast<double>(longer - base) / 20.0;
    };

    std::printf("\n%-8s %5s %5s %7s | %9s %9s %9s %9s | %9s %8s | %6s | %6s %6s\n",
                "gar", "depth", "cores", "threads", "wait(ms)", "busy(ms)", "agg(ms)",
                "apply(ms)", "step(ms)", "st/sum", "a/st", "eng id", "det");
    std::printf(
        "--------------------------------------------------------------------------"
        "---------------------------------------\n");
    for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
      dpbyz::ExperimentConfig c = cfg;
      c.pipeline_depth = depth;
      c.threads = threads;

      const auto start = Clock::now();
      const auto run = run_cfg(c);
      const double step_s = seconds_since(start) / static_cast<double>(steps);
      const double wait_s = run.phase.fill / static_cast<double>(steps);
      const double busy_s = run.phase.fill_busy / static_cast<double>(steps);
      const double agg_s = run.phase.aggregate / static_cast<double>(steps);
      const double apply_s = run.phase.apply / static_cast<double>(steps);

      // Determinism at this depth: rerun, and rerun at the other thread
      // width — both must be bit-equal (the ring is timing-independent).
      dpbyz::ExperimentConfig alt = c;
      alt.threads = threads == 1 ? 2 : 1;
      const auto rerun = run_cfg(c);
      const auto alt_run = run_cfg(alt);
      const bool deterministic =
          rerun.final_parameters == run.final_parameters &&
          rerun.train_loss == run.train_loss &&
          alt_run.final_parameters == run.final_parameters &&
          alt_run.train_loss == run.train_loss;

      // Engine schedule-neutrality check (depth 0 only): iid
      // participation at p = 1 never drops anyone, so its trajectory
      // must be bit-equal to the default full-participation run (the
      // depth-0 seed semantics themselves are pinned by the golden
      // trajectories in tests/test_pipeline.cpp; the depth-k goldens
      // live in tests/test_pipeline_ring.cpp).
      bool engine_identical = true;
      if (depth == 0) {
        dpbyz::ExperimentConfig engine0 = c;
        engine0.participation = "iid";
        engine0.participation_prob = 1.0;
        const auto engine0_run = run_cfg(engine0);
        engine_identical =
            engine0_run.final_parameters == run.final_parameters &&
            engine0_run.train_loss == run.train_loss;
      }

      const double allocs = allocs_per_step(c);
      depth_rows.push_back({"mda", depth, n, d, f, cores, threads, step_s, wait_s, busy_s,
                            agg_s, apply_s, allocs, engine_identical,
                            deterministic});
      std::printf("%-8s %5zu %5zu %7zu | %9.3f %9.3f %9.3f %9.3f | %9.3f %7.2fx | "
                  "%6.1f | %6s %6s\n",
                  "mda", depth, cores, threads, wait_s * 1e3, busy_s * 1e3, agg_s * 1e3,
                  apply_s * 1e3, step_s * 1e3, step_s / (busy_s + agg_s), allocs,
                  depth == 0 ? (engine_identical ? "yes" : "NO") : "-",
                  deterministic ? "yes" : "NO");
      std::fflush(stdout);
    }
    if (cores == 1)
      std::printf("(single-CPU host: the fill thread and the aggregating thread "
                  "time-slice one core, so st/sum cannot drop below 1 here — the "
                  "overlap win needs >= 2 cores.)\n");
  }

  // ---- convergence vs staleness: what the overlap costs -------------------
  // The ring buys wall-clock by training on gradients up to k versions
  // stale; this sweep records what that does to convergence, per GAR, on
  // the paper's phishing-like task (n = 11, f = 2, "little" attack).
  // Committed to the JSON so docs/ARCHITECTURE.md's caveat table points
  // at measured numbers rather than folklore.  A quadratic companion
  // runs the Theorem-1 strongly-convex task (exact excess loss) over the
  // same depths — the cleanest single number for the staleness penalty.
  std::vector<StalenessRow> staleness_rows;
  std::vector<QuadStalenessRow> quad_staleness_rows;
  {
    const dpbyz::PhishingExperiment phishing(42);
    dpbyz::ExperimentConfig cfg;
    cfg.num_workers = 11;
    cfg.num_byzantine = 2;
    cfg.steps = fast ? 100 : 300;
    cfg.eval_every = cfg.steps;
    cfg.batch_size = 50;
    cfg.attack_enabled = true;
    cfg.attack = "little";

    std::printf("\n%-8s %5s | %9s %10s %10s %12s\n", "gar", "depth", "final acc",
                "final loss", "min loss", "steps-to-min");
    std::printf("---------------------------------------------------------------\n");
    for (const char* gar : {"average", "krum", "mda", "median"}) {
      for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
        dpbyz::ExperimentConfig c = cfg;
        c.gar = gar;
        c.pipeline_depth = depth;
        const auto run = phishing.run(c);
        staleness_rows.push_back({gar, depth, run.final_accuracy,
                                  run.final_train_loss, run.min_train_loss,
                                  run.steps_to_min_loss});
        std::printf("%-8s %5zu | %9.4f %10.5f %10.5f %12zu\n", gar, depth,
                    run.final_accuracy, run.final_train_loss, run.min_train_loss,
                    run.steps_to_min_loss);
        std::fflush(stdout);
      }
    }

    // Theorem-1 tie-in: gamma_t = 1/(lambda t) on the strongly-convex
    // Gaussian-mean task; excess loss of the final iterate, mean over 3
    // seeds, per depth.  Theorem 1's O(1/T) rate is proved for the
    // synchronous loop; the committed curve shows how gently (or not)
    // bounded staleness degrades it.
    const dpbyz::QuadraticExperiment quad(32, 1.0, 42, 20000);
    dpbyz::ExperimentConfig qc;
    qc.num_workers = 4;
    qc.num_byzantine = 0;
    qc.gar = "average";
    qc.batch_size = 10;
    qc.steps = fast ? 150 : 400;
    qc.eval_every = qc.steps;
    qc.momentum = 0.0;
    qc.lr_schedule = "theorem1";
    qc.learning_rate = 1.0;
    qc.clip_norm = 3.0;
    qc.clip_enabled = false;
    std::printf("\n%-28s %5s | %12s\n", "theorem-1 quadratic (d=32)", "depth",
                "excess loss");
    for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
      dpbyz::ExperimentConfig c = qc;
      c.pipeline_depth = depth;
      const double excess = quad.mean_excess_loss(c, 3);
      quad_staleness_rows.push_back({depth, excess});
      std::printf("%-28s %5zu | %12.6f\n", "", depth, excess);
      std::fflush(stdout);
    }
  }

  // ---- tree sweep: flat vs sharded vs the hierarchical tree ---------------
  // d = 1e3 so the n = 1000 flat O(n²d) point stays rerunnable.  f = 2
  // for the robust rules (the largest f whose S = 4 merge budget is
  // admissible: f = 4 would need a median over 4 shard aggregates
  // tolerating 2), f = 0 for average.  Cells whose derived per-level
  // budget is inadmissible — (L=2, B=8) needs 64 non-empty leaves, and
  // 3-row leaves cannot host krum at f_child = 1 — are recorded with
  // the constructor's own message, not silently dropped; same for the
  // flat-MDA cells whose subset search is intractable at large n (the
  // combinatorial regime — sharding/trees keep the MDA leaves small,
  // which is exactly the point of the comparison).
  std::vector<TreeRow> tree_rows;
  std::vector<TreeGateRow> tree_gate_rows;
  {
    const size_t d = 1000;
    std::vector<size_t> tree_ns{50, 200, 1000};
    if (fast) tree_ns.pop_back();

    auto measure = [&](dpbyz::Aggregator& agg, const GradientBatch& batch,
                       double& ms, size_t& allocs) {
      dpbyz::AggregatorWorkspace ws;
      agg.aggregate(batch, ws);  // warm every retained buffer
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      agg.aggregate(batch, ws);
      g_count_allocs.store(false);
      allocs = g_alloc_count.load();
      ms = time_call([&] { agg.aggregate(batch, ws); }, budget_s) * 1e3;
    };
    auto emit = [&](TreeRow r) {
      if (r.note.empty()) {
        std::printf("%-8s %-14s %5zu %6zu %3zu | %12.3f | %7zu\n", r.gar.c_str(),
                    r.topology.c_str(), r.n, r.d, r.f, r.ms, r.allocs);
      } else {
        std::printf("%-8s %-14s %5zu %6zu %3zu | skipped (%s)\n", r.gar.c_str(),
                    r.topology.c_str(), r.n, r.d, r.f, r.note.c_str());
      }
      std::fflush(stdout);
      tree_rows.push_back(std::move(r));
    };

    std::printf("\n%-8s %-14s %5s %6s %3s | %12s | %7s\n", "gar", "topology", "n",
                "d", "f", "step (ms)", "allocs");
    std::printf(
        "----------------------------------------------------------------\n");
    for (const std::string gar : {"krum", "mda", "average"}) {
      for (const size_t n : tree_ns) {
        const size_t f = gar == "average" ? 0 : 2;
        const auto gradients = make_gradients(n, d, 42);
        const GradientBatch batch = GradientBatch::from_vectors(gradients);

        TreeRow flat_row{gar, "flat", n, d, f, 0.0, 0, ""};
        if (gar == "mda" && n > 50) {
          // Constructible (C(n, 2) subsets is under the cap) but the
          // branch-and-bound wall-clock blows up at this n; a tracked
          // bench stays rerunnable.
          flat_row.note = "flat MDA subset search intractable at this n";
        } else {
          const auto flat = dpbyz::make_aggregator(gar, n, f);
          measure(*flat, batch, flat_row.ms, flat_row.allocs);
        }
        emit(std::move(flat_row));

        TreeRow shard_row{gar, "sharded(S=4)", n, d, f, 0.0, 0, ""};
        std::optional<dpbyz::HierarchicalAggregator> sharded;
        try {
          sharded.emplace(gar, "median", n, f, 1, 4);
          measure(*sharded, batch, shard_row.ms, shard_row.allocs);
        } catch (const std::invalid_argument& e) {
          shard_row.note = e.what();
        }
        emit(std::move(shard_row));

        TreeRow tree_row{gar, "tree(L=2,B=8)", n, d, f, 0.0, 0, ""};
        std::optional<dpbyz::HierarchicalAggregator> tree;
        try {
          tree.emplace(gar, "median", n, f, 2, 8);
          measure(*tree, batch, tree_row.ms, tree_row.allocs);
        } catch (const std::invalid_argument& e) {
          tree_row.note = e.what();
        }
        emit(std::move(tree_row));
      }
    }

    // Refactor gates at (n = 48, B = 4): the L = 1 tree must reproduce
    // the outputs of the two-level sharded aggregator (S = 4) it replaced
    // — pinned as digests of the output bits, recorded before that class
    // was removed — and the tree over the ideal framed raw64 link must
    // match the in-memory tree.
    {
      const size_t gn = 48, gd = 4096;
      const auto gradients = make_gradients(gn, gd, 42);
      const GradientBatch batch = GradientBatch::from_vectors(gradients);
      const dpbyz::net::LinkConfig ideal;  // raw64, no faults
      std::printf("\n%-8s | %9s %12s %12s\n", "gar", "L1 = pin", "framed ident",
                  "framed allocs");
      std::printf("--------------------------------------------------\n");
      const std::pair<std::string, uint64_t> sharded_pins[] = {
          {"krum", 0x600921a233cb7701ULL},
          {"mda", 0xdca1f23242aa3195ULL},
          {"average", 0x6cb1293c97ed085dULL}};
      for (const auto& [gar, pin] : sharded_pins) {
        const size_t f = gar == "average" ? 0 : 2;
        const dpbyz::HierarchicalAggregator tree(gar, "median", gn, f, 1, 4);
        const dpbyz::HierarchicalAggregator framed(gar, "median", gn, f, 1, 4, 1, &ideal);
        dpbyz::AggregatorWorkspace ws_t, ws_f;
        const auto tv = tree.aggregate(batch, ws_t);
        const Vector want(tv.begin(), tv.end());
        const bool l1_identical = bits_digest(want) == pin;
        framed.aggregate(batch, ws_f);  // warm the wire buffers
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        const auto fv = framed.aggregate(batch, ws_f);
        g_count_allocs.store(false);
        const size_t framed_allocs = g_alloc_count.load();
        const bool framed_identical = Vector(fv.begin(), fv.end()) == want;
        tree_gate_rows.push_back(
            {gar, gn, f, 4, l1_identical, framed_identical, framed_allocs});
        std::printf("%-8s | %9s %12s %12zu\n", gar.c_str(),
                    l1_identical ? "yes" : "NO", framed_identical ? "yes" : "NO",
                    framed_allocs);
        std::fflush(stdout);
      }
    }
  }

  // ---- wire sweep: encode/decode throughput and bytes per round -----------
  // One d = 1e4 row per mode: median encode and decode+apply wall-clock,
  // the steady-state allocation count of a full codec cycle (must be 0),
  // the checksum gates (raw64 round trip byte-exact; one flipped byte
  // always rejected), the int8 decode error, and — from
  // the framed n = 48 L = 1 tree above — the actual bytes one
  // aggregation round puts on the wire per mode (4 edges × d = 4096).
  std::vector<WireRow> wire_rows;
  {
    const size_t wd = 10000;
    Rng rng(42);
    const Vector row = rng.normal_vector(wd, 1.0);
    const auto wire_gradients = make_gradients(48, 4096, 42);
    const GradientBatch wire_batch = GradientBatch::from_vectors(wire_gradients);

    std::printf("\n%-6s %6s | %10s %6s | %10s %10s | %6s | %5s %7s | %9s | %11s\n",
                "mode", "d", "bytes/row", "frames", "enc (ms)", "dec (ms)",
                "allocs", "exact", "corrupt", "max err", "bytes/round");
    std::printf(
        "--------------------------------------------------------------------------"
        "--------------------------\n");
    for (const dpbyz::net::WireMode mode :
         {dpbyz::net::WireMode::kRaw64, dpbyz::net::WireMode::kInt8}) {
      dpbyz::net::FrameEncoder enc(mode, 1024);
      dpbyz::net::FrameBuffer frames;
      Vector decoded(wd, 0.0);
      auto decode_all = [&] {
        for (size_t i = 0; i < frames.count(); ++i) {
          dpbyz::net::FrameView chunk;
          if (dpbyz::net::decode_frame(frames.frame(i), chunk) !=
                  dpbyz::net::DecodeStatus::kOk ||
              !dpbyz::net::apply_chunk(chunk, decoded))
            std::abort();  // a healthy frame must always decode
        }
      };

      // Warm, then prove the encode+decode cycle is allocation-free.
      frames.clear();
      enc.encode_row(row, frames);
      decode_all();
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      frames.clear();
      enc.encode_row(row, frames);
      decode_all();
      g_count_allocs.store(false);
      const size_t codec_allocs = g_alloc_count.load();

      const double encode_ms = time_call(
                                   [&] {
                                     frames.clear();
                                     enc.encode_row(row, frames);
                                   },
                                   budget_s) *
                               1e3;
      const double decode_ms = time_call(decode_all, budget_s) * 1e3;

      std::fill(decoded.begin(), decoded.end(), 0.0);
      decode_all();
      const bool round_trip_exact = decoded == row;
      double max_abs_err = 0.0;
      for (size_t i = 0; i < wd; ++i)
        max_abs_err = std::max(max_abs_err, std::abs(decoded[i] - row[i]));

      // One flipped byte anywhere must fail the CRC.
      const std::span<const uint8_t> good = frames.frame(0);
      std::vector<uint8_t> bad(good.begin(), good.end());
      bad[bad.size() / 2] ^= 0x40;
      dpbyz::net::FrameView chunk;
      const bool corrupt_rejected =
          dpbyz::net::decode_frame(bad, chunk) != dpbyz::net::DecodeStatus::kOk;

      // Bytes one framed tree round actually sends under this mode.
      dpbyz::net::LinkConfig link;
      link.wire = mode;
      const dpbyz::HierarchicalAggregator framed("median", "median", 48, 2, 1, 4, 1, &link);
      dpbyz::AggregatorWorkspace ws;
      framed.aggregate(wire_batch, ws);
      const uint64_t bytes_per_round = framed.channel_stats().bytes_sent;

      wire_rows.push_back({dpbyz::net::wire_mode_name(mode), wd,
                           enc.bytes_per_row(wd), enc.chunks(wd), encode_ms,
                           decode_ms, codec_allocs, round_trip_exact,
                           corrupt_rejected, max_abs_err, bytes_per_round});
      std::printf("%-6s %6zu | %10zu %6zu | %10.4f %10.4f | %6zu | %5s %7s | "
                  "%9.2e | %11llu\n",
                  dpbyz::net::wire_mode_name(mode).c_str(), wd,
                  enc.bytes_per_row(wd), enc.chunks(wd), encode_ms, decode_ms,
                  codec_allocs, round_trip_exact ? "yes" : "no",
                  corrupt_rejected ? "yes" : "NO", max_abs_err,
                  static_cast<unsigned long long>(bytes_per_round));
      std::fflush(stdout);
    }
  }

  // ---- churn sweep: elastic membership epochs ----------------------------
  // What elasticity costs at training time, on the same phishing config
  // the CI churn-stress leg replays: per-round wall-clock and allocs per
  // step under increasing join/leave rates, the per-boundary
  // renegotiation overhead (zero-probability epochs at E = 5 vs the
  // churn-off loop — the boundary machinery with no roster change), and
  // the checkpoint write cost (a checkpointing run vs the same run bare,
  // per written checkpoint).  Four contracts become --check gates: the
  // churn-off row's steady state stays allocation-free, the zero-prob
  // epoch trajectory is bitwise equal to churn-off (the elasticity layer
  // is inert when nothing churns), checkpoint writes do not perturb the
  // trajectory, and a kill-at-half/restore run reproduces the
  // uninterrupted trajectory bit-for-bit in-process (the CI leg proves
  // the same across processes with cmp).
  std::vector<ChurnRow> churn_rows;
  Quartiles churn_reneg;             // ms per epoch boundary, zero-prob epochs
  double churn_ckpt_write_ms = 0.0;  // per written checkpoint
  bool churn_ckpt_write_inert = true;
  bool churn_restore_identical = true;
  {
    const dpbyz::PhishingExperiment phishing(42);
    dpbyz::ExperimentConfig cfg;
    cfg.num_workers = 11;
    cfg.num_byzantine = 3;
    cfg.gar = "median";
    cfg.batch_size = 50;
    cfg.steps = fast ? 160 : 300;
    cfg.eval_every = cfg.steps;
    cfg.attack_enabled = true;
    cfg.attack = "little";
    cfg.churn_seed = 7;

    auto run_timed = [&](const dpbyz::ExperimentConfig& c, double& total_s) {
      const auto start = Clock::now();
      auto run = phishing.run(c);
      total_s = seconds_since(start);
      return run;
    };
    auto same_trajectory = [](const dpbyz::RunResult& a,
                              const dpbyz::RunResult& b) {
      return a.final_parameters == b.final_parameters &&
             a.train_loss == b.train_loss && a.round_rows == b.round_rows &&
             a.round_f == b.round_f;
    };
    // Allocs per step as the count difference between a 25- and a 45-round
    // run: both windows end mid-epoch (E = 20), so the 20-step difference
    // carries exactly one boundary for the epoch rows — renegotiation,
    // roster rebuild and GAR-cache traffic are amortized in, not hidden.
    auto allocs_per_step = [&](dpbyz::ExperimentConfig c) {
      auto counted = [&](size_t s) {
        c.steps = s;
        c.eval_every = s;
        g_alloc_count.store(0);
        g_count_allocs.store(true);
        phishing.run(c);
        g_count_allocs.store(false);
        return g_alloc_count.load();
      };
      const size_t base = counted(25);
      const size_t longer = counted(45);
      return static_cast<double>(longer - base) / 20.0;
    };

    struct Point {
      const char* label;
      double join, leave;
    };
    const Point points[] = {{"off", 0.0, 0.0},
                            {"epoch:20x0x0", 0.0, 0.0},
                            {"epoch:20x0.6x0.1", 0.6, 0.1},
                            {"epoch:20x0.9x0.3", 0.9, 0.3}};

    std::printf("\n%-18s %3s %5s %6s | %6s %5s | %9s %9s | %6s | %6s\n",
                "churn", "E", "join", "leave", "events", "rows", "step (ms)",
                "rounds/s", "a/st", "off id");
    std::printf(
        "--------------------------------------------------------------------"
        "--------------\n");
    std::optional<dpbyz::RunResult> off_run;
    for (const Point& p : points) {
      dpbyz::ExperimentConfig c = cfg;
      const bool epoch = std::string(p.label) != "off";
      if (epoch) {
        c.churn = "epoch";
        c.churn_epoch_rounds = 20;
        c.churn_join_prob = p.join;
        c.churn_leave_prob = p.leave;
        // The zero-probability row isolates the boundary machinery: with
        // reputation scoring off too, every epoch renegotiates to the
        // identical roster, so the trajectory must match churn-off.
        if (p.join == 0.0 && p.leave == 0.0) c.reputation = "off";
      }
      double total_s = 0.0;
      const auto run = run_timed(c, total_s);
      bool off_identical = true;
      if (!epoch) {
        off_run = run;
      } else if (p.join == 0.0 && p.leave == 0.0) {
        off_identical = same_trajectory(run, *off_run);
      }
      const double step_s = total_s / static_cast<double>(cfg.steps);
      ChurnRow row{p.label,
                   epoch ? size_t{20} : size_t{0},
                   p.join,
                   p.leave,
                   cfg.steps,
                   run.churn_trace.size(),
                   run.round_rows.back(),
                   step_s,
                   allocs_per_step(c),
                   off_identical};
      std::printf("%-18s %3zu %5.2f %6.2f | %6zu %5zu | %9.4f %9.1f | %6.1f | "
                  "%6s\n",
                  row.churn.c_str(), row.epoch_rounds, row.join_prob,
                  row.leave_prob, row.events, row.final_rows, row.step_s * 1e3,
                  1.0 / row.step_s, row.allocs,
                  epoch && p.join == 0.0 ? (off_identical ? "yes" : "NO") : "-");
      std::fflush(stdout);
      churn_rows.push_back(std::move(row));
    }

    // Renegotiation overhead per boundary: zero-probability epochs at
    // E = 5 (steps/5 boundaries) against the churn-off run — the only
    // difference is the boundary machinery itself.  Host noise moves one
    // run as much as the boundaries do, so the two configs alternate over
    // kRenegPairs pairs and the figure is the median of the paired
    // differences with their quartiles, unresolved (null in the JSON)
    // when the quartile range spans zero.
    {
      dpbyz::ExperimentConfig epochs = cfg;
      epochs.churn = "epoch";
      epochs.churn_epoch_rounds = 5;
      epochs.churn_join_prob = 0.0;
      epochs.churn_leave_prob = 0.0;
      epochs.reputation = "off";
      const double boundaries = static_cast<double>(cfg.steps) / 5.0;
      std::vector<double> diffs(kRenegPairs);
      for (double& diff : diffs) {
        double epochs_s = 0.0, off_s = 0.0;
        run_timed(epochs, epochs_s);
        run_timed(cfg, off_s);
        diff = (epochs_s - off_s) / boundaries * 1e3;
      }
      std::sort(diffs.begin(), diffs.end());
      churn_reneg = {diffs[kRenegPairs / 4], diffs[kRenegPairs / 2],
                     diffs[3 * kRenegPairs / 4]};
      std::printf("renegotiation overhead: %.4f ms per boundary, quartiles "
                  "[%.4f, %.4f]%s (zero-prob E=5 vs off, %g boundaries, "
                  "median of %zu pairs)\n",
                  churn_reneg.median, churn_reneg.q1, churn_reneg.q3,
                  churn_reneg.resolved() ? "" : " — unresolved", boundaries,
                  kRenegPairs);
    }

    // Checkpoint write cost + the two restore gates, on the moderate
    // churn point.  The writer run and the kill/restore pair each get a
    // fresh checkpoint path in the working directory (removed after).
    {
      dpbyz::ExperimentConfig churning = cfg;
      churning.churn = "epoch";
      churning.churn_epoch_rounds = 20;
      churning.churn_join_prob = 0.6;
      churning.churn_leave_prob = 0.1;
      // eval_every is part of the checkpoint signature, so the killed
      // half-run and the resumed full run must share one value.
      churning.eval_every = cfg.steps / 2;
      double plain_s = 0.0;
      const auto plain = run_timed(churning, plain_s);

      const char* ckpt_path = "bench_churn.ckpt";
      std::remove(ckpt_path);
      dpbyz::ExperimentConfig writing = churning;
      writing.checkpoint_path = ckpt_path;
      writing.checkpoint_every = 25;
      double writing_s = 0.0;
      const auto written = run_timed(writing, writing_s);
      const double n_ckpts = static_cast<double>(cfg.steps / 25);  // written
      churn_ckpt_write_ms = (writing_s - plain_s) / n_ckpts * 1e3;
      churn_ckpt_write_inert = same_trajectory(written, plain);

      std::remove(ckpt_path);
      dpbyz::ExperimentConfig killed = writing;
      killed.steps = cfg.steps / 2;
      phishing.run(killed);  // dies at its steps/2 checkpoint
      const auto resumed = phishing.run(writing);  // fresh run, same file
      churn_restore_identical = same_trajectory(resumed, plain) &&
                                resumed.churn_trace == plain.churn_trace;
      std::remove(ckpt_path);

      std::printf("checkpoint write: %.4f ms each (%g per run); writes inert: "
                  "%s; kill@%zu/restore bit-identical: %s\n",
                  churn_ckpt_write_ms, n_ckpts,
                  churn_ckpt_write_inert ? "yes" : "NO", killed.steps,
                  churn_restore_identical ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  char reneg_median[32] = "null";
  if (churn_reneg.resolved())
    std::snprintf(reneg_median, sizeof reneg_median, "%.6f", churn_reneg.median);
  FILE* out = std::fopen("BENCH_gar_scaling.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_gar_scaling.json for writing\n");
    return 1;
  }
  // Host facts next to every number: timings only compare across runs on
  // the same core count, ISA backend and compiler.
  std::fprintf(out,
               "{\n  \"bench\": \"gar_scaling\",\n"
               "  \"host\": {\"cores\": %u, \"fast_backend\": \"%s\", "
               "\"compiler\": \"%s\", \"mode\": \"%s\"},\n  \"results\": [\n",
               std::max(1u, std::thread::hardware_concurrency()),
               dpbyz::kernels::fast_backend(), DPBYZ_BENCH_COMPILER, fast ? "fast" : "full");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"gar\": \"%s\", \"n\": %zu, \"d\": %zu, \"f\": %zu, "
                 "\"batch_ms\": %.6f, \"seed_ms\": %.6f, \"speedup\": %.3f, "
                 "\"allocs_after_warmup\": %zu, \"bit_identical\": %s}%s\n",
                 r.gar.c_str(), r.n, r.d, r.f, r.new_s * 1e3, r.ref_s * 1e3,
                 r.ref_s / r.new_s, r.allocs, r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"shard_sweep\": [\n");
  for (size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardRow& r = shard_rows[i];
    std::fprintf(out,
                 "    {\"gar\": \"%s\", \"n\": %zu, \"d\": %zu, \"f\": %zu, "
                 "\"shards\": %zu, \"shard_f\": %zu, \"merge_f\": %zu, "
                 "\"sharded_ms\": %.6f, \"flat_ms\": %.6f, "
                 "\"speedup_vs_flat\": %.3f, \"allocs_after_warmup\": %zu, "
                 "\"s1_bit_identical\": %s}%s\n",
                 r.gar.c_str(), r.n, r.d, r.f, r.shards, r.shard_f, r.merge_f,
                 r.sharded_s * 1e3, r.flat_s * 1e3, r.flat_s / r.sharded_s, r.allocs,
                 r.shards > 1 ? "null" : (r.s1_identical ? "true" : "false"),
                 i + 1 < shard_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"scalar_pairwise_threads_identical\": %s,\n"
               "  \"colluding_pairwise\": {\"n\": %zu, \"d\": %zu, \"colluding\": %zu, "
               "\"distinct\": %zu, \"threads\": %zu, \"all_rows_ms\": %.6f, "
               "\"distinct_rows_ms\": %.6f, \"bit_identical\": %s},\n"
               "  \"forge_sweep\": [\n",
               scalar_pairwise_threads_identical ? "true" : "false", collusion.n, collusion.d,
               collusion.colluding, collusion.distinct, collusion.threads,
               collusion.full_s * 1e3, collusion.distinct_s * 1e3,
               collusion.identical ? "true" : "false");
  for (size_t i = 0; i < forge_rows.size(); ++i) {
    const ForgeRow& r = forge_rows[i];
    std::fprintf(out,
                 "    {\"attack\": \"little\", \"rows\": %zu, \"d\": %zu, "
                 "\"threads\": %zu, \"seed_ms\": %.6f, \"serial_ms\": %.6f, "
                 "\"threaded_ms\": %.6f, \"speedup_serial\": %.3f, "
                 "\"speedup_threaded\": %.3f, \"allocs_after_warmup\": %zu, "
                 "\"threaded_bit_identical\": %s, \"stats_bit_identical\": %s}%s\n",
                 r.rows, r.d, r.threads, r.seed_s * 1e3, r.serial_s * 1e3,
                 r.threaded_s * 1e3, r.seed_s / r.serial_s, r.seed_s / r.threaded_s,
                 r.allocs, r.identical ? "true" : "false",
                 r.stats_identical ? "true" : "false",
                 i + 1 < forge_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"pipeline_sweep\": [\n");
  for (size_t i = 0; i < pipeline_rows.size(); ++i) {
    const PipelineRow& r = pipeline_rows[i];
    std::fprintf(out,
                 "    {\"mechanism\": \"%s\", \"gar\": \"%s\", \"n\": %zu, "
                 "\"d\": %zu, \"threads\": %zu, \"allocs_per_step_serial\": %.1f, "
                 "\"serial_step_ms\": %.6f, \"pool_step_ms\": %.6f, "
                 "\"spawn_step_ms\": %.6f, \"pool_speedup_vs_spawn\": %.3f, "
                 "\"threaded_bit_identical\": %s}%s\n",
                 r.mechanism.c_str(), r.gar.c_str(), r.n, r.d, r.threads,
                 r.allocs_per_step, r.serial_step_s * 1e3, r.pool_step_s * 1e3,
                 r.spawn_step_s * 1e3, r.spawn_step_s / r.pool_step_s,
                 r.threaded_identical ? "true" : "false",
                 i + 1 < pipeline_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"pipeline_depth_sweep\": [\n");
  for (size_t i = 0; i < depth_rows.size(); ++i) {
    const DepthRow& r = depth_rows[i];
    std::fprintf(out,
                 "    {\"gar\": \"%s\", \"depth\": %zu, \"n\": %zu, \"d\": %zu, "
                 "\"f\": %zu, \"cores\": %zu, \"threads\": %zu, \"step_ms\": %.6f, "
                 "\"fill_wait_ms\": %.6f, \"fill_busy_ms\": %.6f, "
                 "\"aggregate_ms\": %.6f, \"apply_ms\": %.6f, "
                 "\"step_vs_busy_plus_agg\": %.3f, \"allocs_per_step\": %.1f, "
                 "\"engine_bit_identical\": %s, \"deterministic\": %s}%s\n",
                 r.gar.c_str(), r.depth, r.n, r.d, r.f, r.cores, r.threads, r.step_s * 1e3,
                 r.fill_wait_s * 1e3, r.fill_busy_s * 1e3, r.agg_s * 1e3,
                 r.apply_s * 1e3, r.step_s / (r.fill_busy_s + r.agg_s), r.allocs,
                 r.depth == 0 ? (r.engine_identical ? "true" : "false") : "null",
                 r.deterministic ? "true" : "false",
                 i + 1 < depth_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"staleness_convergence\": [\n");
  for (size_t i = 0; i < staleness_rows.size(); ++i) {
    const StalenessRow& r = staleness_rows[i];
    std::fprintf(out,
                 "    {\"gar\": \"%s\", \"depth\": %zu, "
                 "\"final_accuracy\": %.6f, \"final_loss\": %.8f, "
                 "\"min_loss\": %.8f, \"steps_to_min\": %zu}%s\n",
                 r.gar.c_str(), r.depth, r.final_accuracy, r.final_loss,
                 r.min_loss, r.steps_to_min,
                 i + 1 < staleness_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"staleness_quadratic_excess\": [\n");
  for (size_t i = 0; i < quad_staleness_rows.size(); ++i) {
    const QuadStalenessRow& r = quad_staleness_rows[i];
    std::fprintf(out, "    {\"depth\": %zu, \"excess_loss\": %.8f}%s\n", r.depth,
                 r.excess_loss,
                 i + 1 < quad_staleness_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"tree_sweep\": [\n");
  for (size_t i = 0; i < tree_rows.size(); ++i) {
    const TreeRow& r = tree_rows[i];
    if (r.note.empty()) {
      std::fprintf(out,
                   "    {\"gar\": \"%s\", \"topology\": \"%s\", \"n\": %zu, "
                   "\"d\": %zu, \"f\": %zu, \"step_ms\": %.6f, "
                   "\"allocs_after_warmup\": %zu, \"skipped\": null}%s\n",
                   r.gar.c_str(), r.topology.c_str(), r.n, r.d, r.f, r.ms,
                   r.allocs, i + 1 < tree_rows.size() ? "," : "");
    } else {
      std::fprintf(out,
                   "    {\"gar\": \"%s\", \"topology\": \"%s\", \"n\": %zu, "
                   "\"d\": %zu, \"f\": %zu, \"step_ms\": null, "
                   "\"allocs_after_warmup\": null, \"skipped\": \"%s\"}%s\n",
                   r.gar.c_str(), r.topology.c_str(), r.n, r.d, r.f,
                   r.note.c_str(), i + 1 < tree_rows.size() ? "," : "");
    }
  }
  std::fprintf(out, "  ],\n  \"tree_gates\": [\n");
  for (size_t i = 0; i < tree_gate_rows.size(); ++i) {
    const TreeGateRow& r = tree_gate_rows[i];
    std::fprintf(out,
                 "    {\"gar\": \"%s\", \"n\": %zu, \"f\": %zu, \"branch\": %zu, "
                 "\"l1_bit_identical_to_sharded\": %s, "
                 "\"l1_framed_bit_identical\": %s, "
                 "\"framed_allocs_after_warmup\": %zu}%s\n",
                 r.gar.c_str(), r.n, r.f, r.branch,
                 r.l1_identical ? "true" : "false",
                 r.l1_framed_identical ? "true" : "false", r.framed_allocs,
                 i + 1 < tree_gate_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"wire_sweep\": [\n");
  for (size_t i = 0; i < wire_rows.size(); ++i) {
    const WireRow& r = wire_rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"d\": %zu, \"bytes_per_row\": %zu, "
                 "\"frames_per_row\": %zu, \"encode_ms\": %.6f, "
                 "\"decode_ms\": %.6f, \"codec_allocs_after_warmup\": %zu, "
                 "\"round_trip_exact\": %s, \"corrupt_rejected\": %s, "
                 "\"max_abs_err\": %.3e, \"tree_bytes_per_round\": %llu}%s\n",
                 r.mode.c_str(), r.d, r.bytes_per_row, r.frames_per_row,
                 r.encode_ms, r.decode_ms, r.codec_allocs,
                 r.round_trip_exact ? "true" : "false",
                 r.corrupt_rejected ? "true" : "false", r.max_abs_err,
                 static_cast<unsigned long long>(r.tree_bytes_per_round),
                 i + 1 < wire_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"churn_sweep\": [\n");
  for (size_t i = 0; i < churn_rows.size(); ++i) {
    const ChurnRow& r = churn_rows[i];
    std::fprintf(out,
                 "    {\"churn\": \"%s\", \"epoch_rounds\": %zu, "
                 "\"join_prob\": %.2f, \"leave_prob\": %.2f, \"rounds\": %zu, "
                 "\"churn_events\": %zu, \"final_round_rows\": %zu, "
                 "\"step_ms\": %.6f, \"rounds_per_s\": %.1f, "
                 "\"allocs_per_step\": %.1f, "
                 "\"zero_churn_bit_identical_to_off\": %s}%s\n",
                 r.churn.c_str(), r.epoch_rounds, r.join_prob, r.leave_prob,
                 r.rounds, r.events, r.final_rows, r.step_s * 1e3,
                 1.0 / r.step_s, r.allocs,
                 r.epoch_rounds > 0 && r.join_prob == 0.0
                     ? (r.off_identical ? "true" : "false")
                     : "null",
                 i + 1 < churn_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"churn_renegotiation_ms_per_boundary\": %s,\n"
               "  \"churn_renegotiation_quartiles_ms\": [%.6f, %.6f],\n"
               "  \"churn_renegotiation_pairs\": %zu,\n"
               "  \"churn_checkpoint_write_ms\": %.6f,\n"
               "  \"churn_checkpoint_write_inert\": %s,\n"
               "  \"churn_restore_bit_identical\": %s\n}\n",
               reneg_median, churn_reneg.q1, churn_reneg.q3, kRenegPairs,
               churn_ckpt_write_ms,
               churn_ckpt_write_inert ? "true" : "false",
               churn_restore_identical ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote BENCH_gar_scaling.json (%zu configurations)\n",
              rows.size() + shard_rows.size() + forge_rows.size() +
                  pipeline_rows.size() + depth_rows.size() +
                  staleness_rows.size() + quad_staleness_rows.size() +
                  tree_rows.size() + tree_gate_rows.size() + wire_rows.size() +
                  churn_rows.size());

  // ---- --check: fail the process (and the CI smoke step) on regressions ---
  if (check) {
    size_t violations = 0;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      ++violations;
    };
    for (const Row& r : rows) {
      if (!r.identical)
        fail(r.gar + " n=" + std::to_string(r.n) + " d=" + std::to_string(r.d) +
             ": batch kernel diverged from the seed implementation");
      if (r.allocs != 0)
        fail(r.gar + " n=" + std::to_string(r.n) + " d=" + std::to_string(r.d) + ": " +
             std::to_string(r.allocs) + " allocs after warmup");
    }
    for (const ShardRow& r : shard_rows) {
      if (r.shards == 1 && !r.s1_identical)
        fail("sharded " + r.gar + " S=1 diverged from the flat rule");
      if (r.allocs != 0)
        fail("sharded " + r.gar + " S=" + std::to_string(r.shards) + ": " +
             std::to_string(r.allocs) + " allocs after warmup");
    }
    if (!scalar_pairwise_threads_identical)
      fail("pairwise kernel drifts across thread widths");
    if (!collusion.identical)
      fail("fill_dist_sq over colluding copies diverged from the brute-force matrix");
    for (const ForgeRow& r : forge_rows) {
      const std::string shape =
          "ALIE forge rows=" + std::to_string(r.rows) + " d=" + std::to_string(r.d);
      if (!r.identical)
        fail(shape + ": threads=" + std::to_string(r.threads) + " diverged from serial");
      if (!r.stats_identical)
        fail(shape + ": diverged from stats::coordinate_mean/coordinate_stddev");
      if (r.allocs != 0)
        fail(shape + ": " + std::to_string(r.allocs) + " allocs after warmup");
    }
    for (const PipelineRow& r : pipeline_rows) {
      if (r.allocs_per_step != 0.0)
        fail("worker pipeline " + r.gar + " n=" + std::to_string(r.n) + ": " +
             std::to_string(r.allocs_per_step) + " allocs per serial step");
      if (!r.threaded_identical)
        fail("threaded trainer " + r.gar + " n=" + std::to_string(r.n) +
             " diverged from serial");
    }
    // Ring gates, one set per swept depth: the depth-0 engine must match
    // the synchronous loop bit-for-bit, every depth must replay
    // bit-identically across reruns and thread widths, and the steady
    // state must stay allocation-free (the k + 1 arenas are all
    // preallocated up front).
    for (const DepthRow& r : depth_rows) {
      if (r.depth == 0 && !r.engine_identical)
        fail("round engine depth-0 fill order diverged from the synchronous loop");
      if (!r.deterministic)
        fail("depth-" + std::to_string(r.depth) +
             " trainer is not deterministic across reruns/thread widths");
      if (r.allocs != 0.0)
        fail("round engine depth-" + std::to_string(r.depth) +
             " steady state allocates (" + std::to_string(r.allocs) +
             " per step)");
    }
    // Hierarchical/wire gates: every measured topology cell must be
    // allocation-free at steady state; the L = 1 tree must match the
    // pinned sharded outputs bit-for-bit, and so must the framed link;
    // the codec must round-trip raw64 byte-exactly, reject corruption,
    // stay allocation-free, and keep int8 inside its documented bound.
    for (const TreeRow& r : tree_rows) {
      if (r.note.empty() && r.allocs != 0)
        fail(r.topology + " " + r.gar + " n=" + std::to_string(r.n) + ": " +
             std::to_string(r.allocs) + " allocs after warmup");
    }
    for (const TreeGateRow& r : tree_gate_rows) {
      if (!r.l1_identical)
        fail("tree L=1 " + r.gar + " diverged from the pinned sharded S=" +
             std::to_string(r.branch) + " output");
      if (!r.l1_framed_identical)
        fail("framed (ideal raw64) tree L=1 " + r.gar +
             " diverged from the in-memory tree");
      if (r.framed_allocs != 0)
        fail("framed tree " + r.gar + ": " + std::to_string(r.framed_allocs) +
             " allocs after warmup");
    }
    for (const WireRow& r : wire_rows) {
      if (r.mode == "raw64" && !r.round_trip_exact)
        fail("raw64 wire round trip is not byte-exact");
      if (!r.corrupt_rejected)
        fail(r.mode + " wire: a corrupted frame passed the checksum");
      if (r.codec_allocs != 0)
        fail(r.mode + " wire codec: " + std::to_string(r.codec_allocs) +
             " allocs after warmup");
      if (r.mode == "int8" && r.max_abs_err > 1.0 / 254.0 * 6.0)
        fail("int8 wire decode error exceeds the ||row||_inf/254 contract");
    }
    // Elastic-membership gates: the churn-off trainer must stay
    // allocation-free at steady state, zero-probability epochs must be
    // trajectory-inert, and checkpointing must neither perturb a run nor
    // lose bit-identity across a kill/restore cycle.
    for (const ChurnRow& r : churn_rows) {
      if (r.epoch_rounds == 0 && r.allocs != 0.0)
        fail("churn-off trainer steady state allocates (" +
             std::to_string(r.allocs) + " per step)");
      if (!r.off_identical)
        fail("zero-probability churn epochs perturbed the trajectory "
             "(elasticity layer is not inert)");
    }
    if (!churn_ckpt_write_inert)
      fail("checkpoint writes perturbed the churning trajectory");
    if (!churn_restore_identical)
      fail("kill/restore trajectory diverged from the uninterrupted run");
    if (violations > 0) {
      std::fprintf(stderr, "--check: %zu violation(s)\n", violations);
      return 1;
    }
    std::printf("--check: all correctness and allocation gates passed\n");
  }
  return 0;
}
