// transport.hpp — one tree edge: encode → channel → reassemble.
//
// EdgeTransport carries one gradient row (a child's subtree aggregate)
// from child to parent over the framed wire format and the simulated
// channel.  The receiver reassembles by chunk sequence number — frames
// may arrive in any order, duplicated (ignored) or corrupted (rejected
// by CRC, indistinguishable from dropped).  After each delivery round
// the still-missing chunks are retransmitted, up to `retransmit_limit`
// extra rounds; if the row is still incomplete the transfer fails and
// the caller substitutes the zero vector (the paper's §2.1 convention
// for non-received gradients), spending one unit of the receiving
// level's merge-stage f budget instead of stalling the round — see
// HierarchicalAggregator.
//
// All buffers (frames, deliveries, the reassembly bitmap) are retained
// across transfers: zero heap allocations after warmup at a fixed row
// dimension.  A transport instance is not thread-safe; the tree drives
// each node's transport serially in child order, which is also what
// makes the channel RNG consumption independent of the thread width.
#pragma once

#include <cstdint>
#include <span>

#include "net/channel.hpp"
#include "net/frame.hpp"

namespace dpbyz::net {

/// Extra delivery rounds for missing chunks on the trainer's tree edges.
inline constexpr size_t kDefaultRetransmitLimit = 2;

/// Everything that parameterizes a tree edge: the wire encoding and the
/// channel behaviour.  A default-constructed LinkConfig is a lossless,
/// in-order raw64 link (framing + checksums exercised, no faults).
struct LinkConfig {
  WireMode wire = WireMode::kRaw64;
  size_t chunk_values = kDefaultChunkValues;  ///< coordinates per frame
  ChannelConfig channel;                      ///< all-zero = ideal
  uint64_t channel_seed = 1;  ///< root of the per-node seed derivation
  size_t retransmit_limit = kDefaultRetransmitLimit;  ///< extra delivery rounds
};

class EdgeTransport {
 public:
  /// `edge_seed` seeds this transport's own channel stream (the tree
  /// derives one per node from LinkConfig::channel_seed).
  EdgeTransport(const LinkConfig& config, uint64_t edge_seed);

  /// Transfers `row` into `out` (equal lengths).  Returns true when the
  /// row was fully reassembled — byte-exact under raw64, within the
  /// documented quantization contract under int8.  Returns false
  /// when chunks were still missing after every retransmission: `out` is
  /// left fully zeroed for the caller's substitution.  Fault and byte
  /// counters accumulate into `stats`.
  bool transfer(std::span<const double> row, std::span<double> out,
                ChannelStats& stats);

  const LinkConfig& config() const { return config_; }

 private:
  LinkConfig config_;
  FrameEncoder encoder_;
  SimulatedChannel channel_;
  FrameBuffer frames_;             // sender-side encoded chunks
  FrameBuffer delivered_;          // receiver-side arrivals, reused
  std::vector<uint8_t> have_;      // per-seq received flag
  std::vector<uint32_t> to_send_;  // chunk indices to (re)transmit
};

}  // namespace dpbyz::net
