#include "utils/parallel.hpp"

namespace dpbyz {

namespace parallel {

namespace {
/// Bounded busy-wait iterations before a thread falls back to its
/// condition variable.  The trainer submits one fork-join job per
/// training step, so the gap between jobs is typically far shorter than
/// a condvar sleep/wake round trip (tens of microseconds); ~a few
/// thousand pause iterations cover that cadence while still putting
/// workers properly to sleep when the process goes idle.
constexpr int kSpinIters = 4096;
}  // namespace

/// Spinning only helps when another core can make progress while we
/// burn this one; on a single-CPU host it just delays the thread that
/// owns the work, so the budget collapses to zero there.
int spin_budget() {
  static const int budget = std::thread::hardware_concurrency() > 1 ? kSpinIters : 0;
  return budget;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace parallel

namespace {
using parallel::cpu_relax;
using parallel::spin_budget;

/// Set for the lifetime of every pool worker thread (any pool).  run()
/// consults it to fall back to serial execution instead of nesting jobs.
thread_local bool t_on_pool_worker = false;
/// Set while a thread is inside run_job (submitting and participating in
/// a job).  A task that itself calls run() would otherwise re-acquire
/// the non-recursive submit mutex on the same thread and self-deadlock.
thread_local bool t_in_fork_join = false;
}  // namespace

size_t resolve_threads(size_t threads) {
  static const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return threads == 0 ? hardware : threads;
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) {
    const size_t hw = resolve_threads(0);
    workers = hw > 1 ? hw - 1 : 1;
  }
  workers_.reserve(workers);
  for (size_t t = 0; t < workers; ++t)
    workers_.emplace_back([this] { work_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_.notify_all();
  for (auto& th : workers_) th.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::on_worker_thread() { return t_on_pool_worker; }

bool ThreadPool::in_serial_context() { return t_on_pool_worker || t_in_fork_join; }

void ThreadPool::drain(Job& job) {
  while (true) {
    if (job.failed.load(std::memory_order_relaxed)) return;
    const size_t chunk = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunks) return;
    const size_t begin = chunk * job.grain;
    const size_t end = std::min(job.count, begin + job.grain);
    try {
      for (size_t i = begin; i < end; ++i) job.invoke(job.ctx, i);
    } catch (...) {
      // Keep only the first failure; later ones are usually cascades.
      // The winner of the exchange has exclusive write access to error,
      // and the submitter only reads it after the mutex-synchronized
      // active_ == 0 handshake, so no further ordering is needed.
      if (!job.failed.exchange(true)) job.error = std::current_exception();
      return;
    }
  }
}

void ThreadPool::run_job(Job& job) {
  // One job at a time: a second submitter blocks here until the pool is
  // idle again (pool workers and tasks of the current job never reach
  // this point — run() diverts them to the serial path — so the wait is
  // always on an independent thread's progress and cannot deadlock).
  std::lock_guard<std::mutex> submit(submit_mutex_);
  t_in_fork_join = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    // Release-publish after job_ is set: a worker whose spin loop sees
    // the new generation then locks mutex_ and finds job_ in place.
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
  drain(job);  // the submitting thread is a participant, not just a waiter
  // Fast path: workers usually finish within the spin budget, skipping
  // the done_ sleep entirely.
  for (int s = 0; s < spin_budget() && active_.load(std::memory_order_acquire) != 0; ++s)
    cpu_relax();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Workers enter the job (ticket + active_ increment) atomically under
    // mutex_ while job_ still points at it, so once active_ drops to zero
    // here no worker can touch the job again and its stack frame is safe
    // to release.
    done_.wait(lock, [&] { return active_.load(std::memory_order_relaxed) == 0; });
    job_ = nullptr;
  }
  t_in_fork_join = false;
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::work_loop() {
  t_on_pool_worker = true;
  std::uint64_t seen = 0;
  while (true) {
    // Spin briefly for the next job before paying the condvar sleep —
    // fork-join jobs arrive at training-step cadence, far faster than a
    // futex round trip.  generation_ is released after job_ is set, and
    // the mutex acquisition below orders the job_ read.
    for (int s = 0; s < spin_budget(); ++s) {
      if (stop_.load(std::memory_order_relaxed) ||
          generation_.load(std::memory_order_acquire) != seen)
        break;
      cpu_relax();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             (job_ != nullptr && generation_.load(std::memory_order_relaxed) != seen);
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = generation_.load(std::memory_order_relaxed);
    Job* job = job_;
    // Participation ticket: jobs capped below the pool width leave the
    // surplus workers asleep until the next generation.
    size_t t = job->tickets.load(std::memory_order_relaxed);
    while (t > 0 && !job->tickets.compare_exchange_weak(t, t - 1)) {
    }
    if (t == 0) continue;
    active_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    drain(*job);
    lock.lock();
    if (active_.fetch_sub(1, std::memory_order_release) == 1) done_.notify_all();
  }
}

}  // namespace dpbyz
