// Tests for utils/parallel and the parallel multi-seed runner.
#include "utils/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/experiment.hpp"

namespace dpbyz {
namespace {

TEST(ResolveThreads, ZeroIsTheHardwareConcurrencyAnyOtherValueIsKept) {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(resolve_threads(0), hardware);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(ParallelMap, PreservesIndexOrder) {
  const auto out = parallel_map(100, [](size_t i) { return i * i; }, 8);
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, EmptyAndSingleton) {
  EXPECT_TRUE(parallel_map(0, [](size_t) { return 1; }).empty());
  const auto one = parallel_map(1, [](size_t i) { return i + 7; }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(ParallelMap, RunsEveryTaskExactlyOnce) {
  std::atomic<int> calls{0};
  const auto out = parallel_map(
      50,
      [&calls](size_t i) {
        calls.fetch_add(1);
        return i;
      },
      4);
  EXPECT_EQ(calls.load(), 50);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), size_t{0}), size_t{50 * 49 / 2});
}

TEST(ParallelMap, MoreThreadsThanTasksIsFine) {
  const auto out = parallel_map(3, [](size_t i) { return i; }, 64);
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParallelMap, PropagatesFirstException) {
  EXPECT_THROW(parallel_map(
                   20,
                   [](size_t i) -> int {
                     if (i == 7) throw std::runtime_error("task 7 failed");
                     return 0;
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelMap, GrainChunksCoverEveryIndexExactlyOnce) {
  // 101 indices in chunks of 7 across 4 threads: order preserved, every
  // index computed once (the grain only changes scheduling granularity).
  std::atomic<int> calls{0};
  const auto out = parallel_map(
      101,
      [&calls](size_t i) {
        calls.fetch_add(1);
        return 3 * i + 1;
      },
      4, 7);
  EXPECT_EQ(calls.load(), 101);
  for (size_t i = 0; i < 101; ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ParallelMap, GrainLargerThanCountFallsBackToSerial) {
  const auto out = parallel_map(10, [](size_t i) { return i; }, 8, 1000);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(ParallelMap, GrainZeroIsTreatedAsOne) {
  const auto out = parallel_map(5, [](size_t i) { return i * 2; }, 2, 0);
  EXPECT_EQ(out, (std::vector<size_t>{0, 2, 4, 6, 8}));
}

TEST(ParallelMap, PropagatesExceptionWithGrain) {
  EXPECT_THROW(parallel_map(
                   40,
                   [](size_t i) -> int {
                     if (i == 33) throw std::runtime_error("task 33 failed");
                     return 0;
                   },
                   4, 5),
               std::runtime_error);
}

TEST(ParallelMap, SerialFallbackMatches) {
  const auto serial = parallel_map(20, [](size_t i) { return 3 * i + 1; }, 1);
  const auto parallel = parallel_map(20, [](size_t i) { return 3 * i + 1; }, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, RunCoversEveryIndexExactlyOnceAndIsReusable) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  // Many jobs through ONE pool instance: reuse is the whole point.
  for (int round = 0; round < 20; ++round) {
    std::vector<int> hits(137, 0);
    std::atomic<int> calls{0};
    pool.run(hits.size(), [&](size_t i) {
      hits[i] += 1;
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 137);
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPool, GrainChunksCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.run(101, [&](size_t i) { hits[i].fetch_add(1); }, /*max_threads=*/0,
           /*grain=*/7);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.run(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesFirstTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(64,
                        [](size_t i) {
                          if (i % 9 == 3) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  // The pool must survive a failed job and run the next one normally.
  std::atomic<int> calls{0};
  pool.run(16, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, MaxThreadsOneRunsSerially) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  pool.run(10, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
           /*max_threads=*/1);
}

TEST(ThreadPool, NestedRunFromAWorkerFallsBackToSerial) {
  // A task dispatched on the pool that itself calls into the parallel
  // layer (e.g. a threaded trainer inside run_seeds_parallel) must
  // execute the nested range serially instead of deadlocking.
  std::atomic<int> inner_calls{0};
  ThreadPool::shared().run(4, [&](size_t) {
    // Whether this task landed on a pool worker or on the participating
    // submitter, the nested call must divert to the serial path.
    EXPECT_TRUE(ThreadPool::in_serial_context());
    const auto inner = parallel_map(25, [&](size_t i) {
      inner_calls.fetch_add(1);
      return i * i;
    });
    for (size_t i = 0; i < 25; ++i) EXPECT_EQ(inner[i], i * i);
  });
  EXPECT_EQ(inner_calls.load(), 4 * 25);
}

TEST(ThreadPool, SharedPoolIsAProcessWideSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().workers(), 1u);
}

TEST(ThreadPool, ConcurrentSubmittersSerializeSafely) {
  // Two non-pool threads submitting simultaneously: jobs must queue one
  // after the other with every index of both jobs computed exactly once.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> a(64), b(64);
  std::thread other([&] { pool.run(64, [&](size_t i) { a[i].fetch_add(1); }); });
  pool.run(64, [&](size_t i) { b[i].fetch_add(1); });
  other.join();
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a[i].load(), 1) << i;
    EXPECT_EQ(b[i].load(), 1) << i;
  }
}

TEST(ParallelSeeds, BitIdenticalToSerialRuns) {
  const PhishingExperiment exp(42);
  ExperimentConfig c;
  c.steps = 40;
  c.eval_every = 20;
  const auto serial = exp.run_seeds(c, 3);
  const auto parallel = exp.run_seeds_parallel(c, 3, 3);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].final_parameters, serial[i].final_parameters) << i;
    EXPECT_EQ(parallel[i].train_loss, serial[i].train_loss) << i;
  }
}

}  // namespace
}  // namespace dpbyz
