// parallel.hpp — persistent thread pool and the deterministic fork-join
// helpers built on it (multi-seed sweeps, blocked GAR kernels, and the
// trainer's honest-worker submission round).
//
// ThreadPool owns long-lived worker threads that sleep between jobs; one
// fork-join job at a time runs over an index range.  Work is handed out
// in contiguous chunks of `grain` indices per atomic cursor bump — the
// same chunked-cursor scheduling the original per-call-spawn parallel_map
// used, so callers get bit-identical results (each index is computed
// exactly once and written to its own slot; which thread computes it is
// irrelevant to the output).  The default grain of 1 is right for coarse
// tasks (one seeded training run, one tree child, one worker pipeline);
// kernels with tiny per-index bodies should pass a larger grain so they
// don't pay one atomic fetch — and one cache-line ping — per element.
//
// Why a pool: the trainer and the aggregation tree call into the
// parallel layer every training step.  Per-call std::thread spawn costs
// both wall-clock (clone + join per step) and heap allocations (thread
// stacks, control blocks), which violates the step path's zero-alloc
// budget.  A pool pays the spawn once; a steady-state run() performs no
// heap allocations — the job descriptor lives on the caller's stack and
// the callable is passed by reference through a trampoline, never
// type-erased into a std::function.
//
// Exception policy (same as the old parallel_map): the first exception
// thrown by any task is captured, remaining chunks are abandoned, and the
// exception is rethrown on the calling thread after all participants
// leave the job.
//
// Nesting policy: run() called from inside a pool worker (e.g. a seeded
// training run dispatched by run_seeds_parallel whose trainer also wants
// threads) executes the range serially on that worker instead of
// deadlocking or oversubscribing.  Concurrent run() calls from distinct
// non-pool threads are serialized; the pool runs one job at a time.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dpbyz {

namespace parallel {

/// Bounded busy-wait iterations a thread should spend polling for
/// step-cadence work before falling back to a condition variable (a
/// condvar round trip costs tens of microseconds — longer than the gap
/// between two training-step jobs).  Zero on single-CPU hosts, where
/// spinning only delays the thread that owns the work.  Shared by the
/// ThreadPool's wakeup paths and the round engine's fill handshake.
int spin_budget();

/// Polite single-iteration pause for spin loops (PAUSE / yield).
void cpu_relax();

}  // namespace parallel

/// Persistent fork-join pool.  Construct once, submit many jobs; worker
/// threads sleep between jobs and are joined by the destructor.  All
/// public methods are safe to call from any thread; a run() issued from
/// inside one of this process's pool workers degrades to serial (see the
/// nesting policy above).
class ThreadPool {
 public:
  /// Spawns `workers` persistent threads; 0 picks hardware_concurrency-1
  /// (the calling thread participates in every job, so total parallelism
  /// is workers + 1), with a floor of 1 worker.
  explicit ThreadPool(size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent worker threads (excluding participating callers).
  size_t workers() const { return workers_.size(); }

  /// The process-wide pool, created on first use with the hardware
  /// default width.  parallel_map and every library-internal caller
  /// share it, so the process never holds more than one set of spare
  /// threads no matter how many components go parallel.
  static ThreadPool& shared();

  /// True when the calling thread is a pool worker (of any ThreadPool in
  /// the process).
  static bool on_worker_thread();

  /// True when the calling thread must not fork: it is a pool worker, or
  /// it is already inside a run() call of its own (a task of the current
  /// job calling back into the parallel layer).  run() executes serially
  /// in this context instead of deadlocking on the one-job-at-a-time
  /// submit lock.
  static bool in_serial_context();

  /// Evaluate fn(0), ..., fn(count - 1) across the pool and the calling
  /// thread, blocking until every index is done.  `max_threads` caps the
  /// number of participating threads including the caller (0 = no cap
  /// beyond pool width); `grain` is the number of consecutive indices
  /// claimed per scheduling step.  fn must be safe to call concurrently
  /// for distinct indices.  Rethrows the first task exception.  Performs
  /// no heap allocations.
  template <typename Fn>
  void run(size_t count, Fn&& fn, size_t max_threads = 0, size_t grain = 1) {
    if (count == 0) return;
    grain = std::max<size_t>(grain, 1);
    const size_t chunks = (count + grain - 1) / grain;
    size_t width = max_threads == 0 ? workers_.size() + 1 : max_threads;
    width = std::min({width, chunks, workers_.size() + 1});
    if (width <= 1 || in_serial_context()) {
      for (size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    using Callable = std::remove_reference_t<Fn>;
    Job job;
    job.invoke = [](void* ctx, size_t i) { (*static_cast<Callable*>(ctx))(i); };
    job.ctx = const_cast<void*>(static_cast<const void*>(&fn));
    job.count = count;
    job.grain = grain;
    job.chunks = chunks;
    job.tickets.store(width - 1, std::memory_order_relaxed);  // caller takes one slot
    run_job(job);
  }

 private:
  /// One fork-join job.  Lives on the submitting caller's stack for the
  /// duration of run_job; workers only ever touch it between taking a
  /// participation ticket (under the pool mutex, while the job is
  /// current) and decrementing the active count (under the pool mutex),
  /// so the caller cannot return while any worker still references it.
  struct Job {
    void (*invoke)(void* ctx, size_t index) = nullptr;
    void* ctx = nullptr;
    size_t count = 0;
    size_t grain = 1;
    size_t chunks = 0;
    std::atomic<size_t> cursor{0};   ///< next chunk to claim
    std::atomic<size_t> tickets{0};  ///< worker participation slots left
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written once by the failed.exchange winner
  };

  /// Publish `job`, participate in it, wait for all workers to leave it,
  /// rethrow its first error.  Serializes concurrent submitters.
  void run_job(Job& job);

  /// Claim and execute chunks until the cursor is exhausted or a task
  /// has failed.  Called by workers and the submitting thread alike.
  static void drain(Job& job);

  void work_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;              ///< guards job_ and orders entry/exit
  std::condition_variable wake_;  ///< workers wait here between jobs
  std::condition_variable done_;  ///< submitter waits for active_ == 0
  Job* job_ = nullptr;            ///< current job, null between jobs
  /// Bumped (release) per job after job_ is set; workers spin briefly on
  /// it before sleeping, so step-cadence jobs (one per training round)
  /// skip the condition-variable wake latency.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<size_t> active_{0};  ///< workers inside the job (modified under mutex_)
  std::atomic<bool> stop_{false};
  std::mutex submit_mutex_;  ///< serializes run_job callers
};

/// The library's one reading of a thread budget: 0 becomes the hardware
/// concurrency (at least 1; queried once per process), any other value is
/// returned as is.  Every `threads` knob resolves through this helper
/// before it reaches a dispatch decision, so `threads = 0` on a 1-CPU
/// host is exactly the serial loop.
size_t resolve_threads(size_t threads);

/// Evaluate fn(0), ..., fn(count - 1) on the process-wide ThreadPool and
/// return the results in index order — bit-identical to the serial loop,
/// which is a library-wide determinism invariant the tests rely on.
/// `threads` = 0 picks the hardware concurrency (at least 1); 1 forces
/// the serial loop.  `grain` is the number of consecutive indices claimed
/// per scheduling step (>= 1; larger values amortise the atomic cursor
/// for cheap tasks).  fn must be safe to call concurrently for distinct
/// indices.  The first task exception is rethrown on the calling thread
/// after the job completes (results are then discarded).
template <typename Fn>
auto parallel_map(size_t count, Fn fn, size_t threads = 0, size_t grain = 1)
    -> std::vector<decltype(fn(size_t{0}))> {
  using Result = decltype(fn(size_t{0}));
  std::vector<Result> results(count);
  if (count == 0) return results;
  grain = std::max<size_t>(grain, 1);

  const size_t chunks = (count + grain - 1) / grain;
  threads = std::min(resolve_threads(threads), chunks);

  if (threads <= 1) {
    for (size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }

  ThreadPool::shared().run(
      count, [&](size_t i) { results[i] = fn(i); }, threads, grain);
  return results;
}

}  // namespace dpbyz
