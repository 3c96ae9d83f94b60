// bench_gar_micro — google-benchmark timings of every GAR.
//
// Supporting performance data: aggregation cost per server step as a
// function of the committee size n and the model dimension d, on a
// prepacked GradientBatch and a warmed AggregatorWorkspace (the
// allocation-free path a server round takes).  Useful to
// document that MDA's exact subset search is practical at the paper's
// n = 11 and where it stops being so.
#include <benchmark/benchmark.h>

#include "aggregation/aggregator.hpp"
#include "aggregation/mda.hpp"
#include "math/rng.hpp"

namespace {

using dpbyz::Rng;
using dpbyz::Vector;

std::vector<Vector> make_gradients(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> g;
  g.reserve(n);
  for (size_t i = 0; i < n; ++i) g.push_back(rng.normal_vector(d, 1.0));
  return g;
}

void run_gar(benchmark::State& state, const std::string& name) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  // Largest admissible f per rule at this n.
  size_t f = 0;
  if (name == "krum" || name == "multi-krum")
    f = n >= 3 ? (n - 3) / 2 : 0;
  else if (name == "bulyan")
    f = n >= 3 ? (n - 3) / 4 : 0;
  else if (name == "mda" || name == "median" || name == "meamed" ||
           name == "trimmed-mean" || name == "phocas" || name == "cge" ||
           name == "geometric-median")
    f = (n - 1) / 2;
  if ((name == "mda" && dpbyz::Mda::subset_count(n, f) > dpbyz::Mda::kMaxSubsets) ||
      (name != "average" && f == 0)) {
    state.SkipWithError("inadmissible (n, f)");
    return;
  }
  const auto agg = dpbyz::make_aggregator(name, n, f);
  // The batch is packed once and the workspace warmed, so each iteration
  // times the rule alone, as a server round runs it.
  const auto batch = dpbyz::GradientBatch::from_vectors(make_gradients(n, d, 1));
  dpbyz::AggregatorWorkspace ws;
  agg->aggregate(batch, ws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg->aggregate(batch, ws).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * d));
}

}  // namespace

#define DPBYZ_GAR_BENCH(label, registry_name)                                \
  BENCHMARK_CAPTURE(run_gar, label, registry_name)                            \
      ->Args({11, 69})                                                        \
      ->Args({11, 1024})                                                      \
      ->Args({25, 69})                                                        \
      ->Args({25, 1024})

DPBYZ_GAR_BENCH(average, "average");
DPBYZ_GAR_BENCH(krum, "krum");
DPBYZ_GAR_BENCH(multi_krum, "multi-krum");
DPBYZ_GAR_BENCH(median, "median");
DPBYZ_GAR_BENCH(trimmed_mean, "trimmed-mean");
DPBYZ_GAR_BENCH(meamed, "meamed");
DPBYZ_GAR_BENCH(phocas, "phocas");
DPBYZ_GAR_BENCH(bulyan, "bulyan");
DPBYZ_GAR_BENCH(cge, "cge");
DPBYZ_GAR_BENCH(geometric_median, "geometric-median");

// MDA separately: exact search is exponential-ish in min(f, n-f); keep to
// committee sizes where C(n, f) is small.
BENCHMARK_CAPTURE(run_gar, mda, "mda")->Args({11, 69})->Args({11, 1024})->Args({15, 69});

BENCHMARK_MAIN();
