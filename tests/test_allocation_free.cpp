// Allocation-count assertions for the steady-state training step.
//
// bench_gar_scaling proves the GAR kernel is zero-alloc; this test pins
// the stronger end-to-end property the PR-3 worker-pipeline rewire
// delivers: one full worker→server round — sample, batch loss, gradient,
// clip, DP noise, aggregate, optimizer update — performs ZERO heap
// allocations once every arena and buffer has warmed up.
//
// The mechanism is the same as the bench's: this TU replaces the global
// allocation functions with counting wrappers (exactly one TU in the test
// binary may do this).  Counting is toggled only around the measured
// steps, so the rest of the suite is unaffected beyond a relaxed atomic
// load per allocation.  Other test files count through alloc_counter.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_counter.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/synthetic.hpp"
#include "dp/gaussian_mechanism.hpp"
#include "dp/laplace_mechanism.hpp"
#include "math/gradient_batch.hpp"
#include "models/linear_model.hpp"
#include "models/optimizer.hpp"

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

namespace dpbyz::test {

void start_counting_allocs() {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
}

size_t stop_counting_allocs() {
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

}  // namespace dpbyz::test

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

namespace dpbyz {
namespace {

/// Allocations performed by `steps` full training rounds after `warmup`
/// rounds have populated every arena, workspace, and worker buffer.  The
/// last `copies` rows repeat the row before them, as colluding Byzantine
/// workers do.
template <typename Mechanism>
size_t steady_state_allocs(const std::string& gar_name, const Mechanism& mechanism,
                           size_t copies = 0, size_t warmup = 3, size_t steps = 2) {
  BlobsConfig bc;
  bc.num_samples = 200;
  bc.num_features = 6;
  bc.separation = 4.0;
  const Dataset data = make_blobs(bc, 8);
  const LinearModel model(6, LinearLoss::kMseOnSigmoid);

  const size_t n = 11, batch_size = 10;
  Rng root(1);
  std::vector<HonestWorker> workers;
  workers.reserve(n);
  for (size_t i = 0; i < n; ++i)
    workers.emplace_back(model, data, batch_size, 1e-2, mechanism,
                         root.derive("worker-" + std::to_string(i)));

  ParameterServer server(make_aggregator(gar_name, n, 2),
                         SgdOptimizer(model.dim(), constant_lr(0.5), 0.99),
                         model.initial_parameters());
  GradientBatch submissions(n, model.dim());

  auto one_step = [&](size_t t) {
    const Vector& w = server.parameters();
    for (size_t i = 0; i < n; ++i) workers[i].submit_into(w, submissions.row(i));
    for (size_t r = n - copies; r < n; ++r)
      vec::copy(submissions.row(n - copies - 1), submissions.row(r));
    server.aggregate_with(server.gar(), submissions);
    server.apply(t);
  };

  size_t t = 1;
  for (size_t s = 0; s < warmup; ++s) one_step(t++);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (size_t s = 0; s < steps; ++s) one_step(t++);
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

TEST(AllocationFree, SteadyStateStepWithGaussianDpAndMda) {
  const auto mech = GaussianMechanism::for_clipped_gradients(0.2, 1e-6, 1e-2, 10);
  EXPECT_EQ(steady_state_allocs("mda", mech), 0u);
}

TEST(AllocationFree, SteadyStateStepWithLaplaceDpAndMedian) {
  const auto mech = LaplaceMechanism::for_clipped_gradients(0.2, 1e-2, 10, 7);
  EXPECT_EQ(steady_state_allocs("median", mech), 0u);
}

TEST(AllocationFree, SteadyStateStepWithoutDpAndAverage) {
  const NoNoise mech;
  EXPECT_EQ(steady_state_allocs("average", mech), 0u);
}

TEST(AllocationFree, SteadyStateSelectionRulesAreAllocationFree) {
  // Every rule that reads the pairwise matrix reuses ws.dist_sq, and
  // with copied rows its distinct-row index too.
  const NoNoise mech;
  for (const size_t copies : {0, 3})
    for (const char* gar : {"krum", "multi-krum", "mda", "mda_greedy", "bulyan"})
      EXPECT_EQ(steady_state_allocs(gar, mech, copies), 0u) << gar << " copies " << copies;
}

TEST(AllocationFree, WorkerMomentumPathIsAllocationFreeToo) {
  // The momentum branch reuses velocity_ and the clean-gradient buffer.
  BlobsConfig bc;
  bc.num_samples = 100;
  bc.num_features = 4;
  const Dataset data = make_blobs(bc, 9);
  const LinearModel model(4, LinearLoss::kMseOnSigmoid);
  const NoNoise mech;
  HonestWorker worker(model, data, 8, 1e-2, mech, Rng(3), /*clip=*/true,
                      /*momentum=*/0.9);
  Vector out(model.dim(), 0.0);
  const Vector w(model.dim(), 0.1);
  for (int s = 0; s < 3; ++s) worker.submit_into(w, out);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int s = 0; s < 2; ++s) worker.submit_into(w, out);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(AllocationFree, FlatKrumStepAboveDispatchGateAtDefaultThreads) {
  // The server's default budget (0, the hardware concurrency) splits
  // krum's pairwise matrix across the shared pool: 64 rows of d = 8448
  // are 17.0M pair-coordinates, above the 2^24 dispatch gate.  A round
  // of aggregate + update must still allocate nothing.
  const size_t n = 64, d = 8448;
  GradientBatch batch(n, d);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i)
    for (double& x : batch.row(i)) x = rng.normal();
  ParameterServer server(make_aggregator("krum", n, 2),
                         SgdOptimizer(d, constant_lr(0.1), 0.9), Vector(d, 0.0));
  auto round = [&](size_t t) {
    server.aggregate_with(server.gar(), batch);
    server.apply(t);
  };
  for (size_t t = 1; t <= 2; ++t) round(t);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (size_t t = 3; t <= 4; ++t) round(t);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(AllocationFree, ThreadedPairwiseMatrixIsAllocationFree) {
  // Above the pool-dispatch threshold (820 * 21000 pair-coordinates >
  // 2^24), so threads > 1 really forks; the warm-up call starts the
  // shared pool's threads.
  const size_t n = 41, d = 21000;
  GradientBatch batch(n, d);
  for (size_t i = 0; i < n; ++i) batch.row(i)[i % d] = static_cast<double>(i);
  std::vector<double> out(n * n);
  pairwise_dist_sq(batch, out, 4);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  pairwise_dist_sq(batch, out, 4);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

}  // namespace
}  // namespace dpbyz
