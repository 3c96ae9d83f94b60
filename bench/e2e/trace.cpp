#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>

// ---- global allocation counter ---------------------------------------------
// Replacing the global allocation functions makes every heap allocation of
// the process visible to the spans.  Counting is switched on only around
// traced runs.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// GCC matches inlined std::allocator news against the replaced
// deallocation functions below and flags them as mismatched pairs.  Every
// replacement routes through malloc/free, so any pairing is correct.
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

namespace e2e {

uint64_t allocations() { return g_alloc_count.load(std::memory_order_relaxed); }

void count_allocations(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "core.trainer_loop";
    case Layer::kWorkerSubmit: return "core.worker_submit";
    case Layer::kForge: return "attacks.forge";
    case Layer::kAggregate: return "aggregation.aggregate";
    case Layer::kApply: return "models.apply";
    case Layer::kEval: return "models.eval";
    case Layer::kFillWait: return "core.fill_wait";
    case Layer::kReputation: return "core.reputation";
    case Layer::kMembership: return "core.membership";
    case Layer::kCheckpointCapture: return "core.checkpoint_capture";
    case Layer::kCheckpointWrite: return "core.checkpoint_write";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(size_t capacity) { spans_.reserve(capacity); }

void Tracer::clear() {
  spans_.clear();
  open_ = -1;
}

Tracer::Scope::Scope(Tracer& tracer, Layer layer, size_t round)
    : tracer_(tracer),
      index_(static_cast<int32_t>(tracer.spans_.size())),
      allocs_at_open_(allocations()) {
  if (tracer_.spans_.size() == tracer_.spans_.capacity())
    throw std::length_error("Tracer: span buffer full (capacity too small)");
  tracer_.spans_.push_back(
      {layer, tracer_.open_, static_cast<uint32_t>(round), now_ns(), 0, 0});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& s = tracer_.spans_[static_cast<size_t>(index_)];
  s.end_ns = now_ns();
  s.allocs = allocations() - allocs_at_open_;
  tracer_.open_ = s.parent;
}

void accumulate(const std::vector<Span>& spans, size_t first_round, LayerTotals& totals) {
  // Children follow their parent in the buffer, so one reverse pass folds
  // every child's duration and allocations into its parent before the
  // parent is visited.
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<uint64_t> child_allocs(spans.size(), 0);
  for (size_t i = spans.size(); i-- > 0;) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += dur;
      child_allocs[static_cast<size_t>(s.parent)] += s.allocs;
    }
    if (s.round < first_round) continue;
    const size_t l = static_cast<size_t>(s.layer);
    totals.self_s[l] += static_cast<double>(dur - child_ns[i]) * 1e-9;
    totals.self_allocs[l] += s.allocs - child_allocs[i];
    ++totals.calls[l];
    if (s.layer == Layer::kRound) {
      ++totals.rounds;
      totals.round_ms.push_back(static_cast<double>(dur) * 1e-6);
    }
  }
}

double traced_round_seconds(const std::vector<Span>& spans) {
  int64_t ns = 0;
  for (const Span& s : spans)
    if (s.layer == Layer::kRound) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

void write_trace(const std::vector<Span>& spans, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "id\tparent\tround\tlayer\tstart_us\tend_us\tallocs\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu\t%d\t%u\t%s\t%.3f\t%.3f\t%llu\n", i, s.parent, s.round,
                 s.layer == Layer::kRound ? "round" : layer_name(s.layer),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3,
                 static_cast<unsigned long long>(s.allocs));
  }
  std::fclose(out);
}

}  // namespace e2e
