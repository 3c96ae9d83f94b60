// trace.hpp — span recording and heap-allocation counting for bench_e2e.
//
// A span is one call into a layer of the library, recorded by the
// benchmark around that call: layer, parent span, round id (the shared
// request id), start, end, and the heap allocations made while it was
// open.  Spans go into a buffer reserved before the run starts, so
// recording allocates nothing and the allocation counts stay exact.
//
// Spans nest at most one level: every layer call sits inside its round.
// A layer's self time is its span's duration minus the durations of its
// children; the round's self time is the trainer loop's own work.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Heap allocations made through the global operator new while counting
/// was on (trace.cpp replaces the global allocation functions).
uint64_t allocations();
void count_allocations(bool on);

/// Nanoseconds on the steady clock.
int64_t now_ns();

enum class Layer : uint8_t {
  kRound,              ///< the whole round; self time = the trainer loop
  kWorkerSubmit,       ///< HonestWorker::submit_into
  kForge,              ///< Attack::forge_into plus the Byzantine row copies
  kAggregate,          ///< ParameterServer::aggregate_with
  kApply,              ///< ParameterServer::apply
  kEval,               ///< Model::accuracy
  kFillWait,           ///< RoundPipeline::acquire
  kReputation,         ///< ReputationBook::observe_round
  kMembership,         ///< MembershipManager::advance + renegotiate
  kCheckpointCapture,  ///< the save_state calls building a TrainerCheckpoint
  kCheckpointWrite,    ///< save_checkpoint
  kCount,
};

inline constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

/// The layer's metric name ("round" reports its self time as
/// "core.trainer_loop").
const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kRound;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  uint32_t round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;  ///< inclusive of children
};

class Tracer {
 public:
  /// Reserves room for `capacity` spans; recording more throws.
  explicit Tracer(size_t capacity);

  /// Records one span from construction to destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, size_t round);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t index_;
    uint64_t allocs_at_open_;
  };

  Scope span(Layer layer, size_t round) { return Scope(*this, layer, round); }

  const std::vector<Span>& spans() const { return spans_; }
  void clear();

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Per-layer totals over the rounds of one or more traced runs.
struct LayerTotals {
  std::array<double, kLayers> self_s{};
  std::array<uint64_t, kLayers> calls{};
  std::array<uint64_t, kLayers> self_allocs{};
  size_t rounds = 0;             ///< rounds folded in
  std::vector<double> round_ms;  ///< inclusive duration of each round
};

/// Fold the spans of rounds >= first_round into `totals`.
void accumulate(const std::vector<Span>& spans, size_t first_round, LayerTotals& totals);

/// Sum of the round spans' durations, seconds (all rounds).
double traced_round_seconds(const std::vector<Span>& spans);

/// Write the spans as tab-separated text, one span per line.
void write_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e
