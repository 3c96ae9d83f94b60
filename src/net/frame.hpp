// frame.hpp — compact framed serialization for gradient rows.
//
// One GradientBatch row travels as a sequence of self-describing frames
// so a lossy, reordering transport can deliver them in any order, drop
// some, or corrupt bytes in flight — the receiver reassembles by chunk
// sequence number and a CRC-32 over every frame rejects corruption
// outright (a corrupted frame is indistinguishable from a dropped one).
//
// Frame layout (little-endian, kFrameHeaderBytes of header, then the
// payload, then a trailing CRC-32 over header + payload, utils/codec.hpp's):
//
//   off  size  field
//     0     4  magic 0x44504258 ("DPBX")
//     4     2  version (kWireVersion)
//     6     1  wire mode (WireMode)
//     7     1  reserved (0)
//     8     4  seq           chunk index within the row, [0, total)
//    12     4  total         chunks this row was split into
//    16     4  dim           full row dimension (receiver-side check)
//    20     4  offset        first coordinate (raw64/int8) or first
//                            entry index (topk) carried by this chunk
//    24     4  count         coordinates / entries in this chunk
//    28     4  payload_bytes
//    32     8  scale         int8 dequantization scale (0 otherwise)
//    40     …  payload
//     …     4  crc32 over bytes [0, kFrameHeaderBytes + payload_bytes)
//
// Payload encodings (the quantization-error-vs-robustness contract is
// documented in docs/ARCHITECTURE.md, "Hierarchical aggregation & wire
// format"):
//   raw64 — count doubles, memcpy of the IEEE-754 bit patterns: decode
//           is byte-exact, including signed zeros and subnormals.
//   int8  — count bytes; x ≈ q·scale with scale = max|x| / 127 and
//           q = clamp(round(x / scale), ±127), so the per-coordinate
//           error is ≤ scale/2 = ‖row‖∞ / 254.
//   topk  — count (u32 index, f64 value) entries: the k largest-|x|
//           coordinates exactly (ties broken toward the lower index),
//           every other coordinate decodes to 0.
//
// decode_frame never throws and never reads outside the given span —
// arbitrary garbage (fuzzed, truncated, bit-flipped) yields a non-kOk
// status; the ASAN CI leg runs the fuzz sweep in tests/test_net.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dpbyz::net {

inline constexpr uint32_t kFrameMagic = 0x44504258u;  // "DPBX"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 40;
/// Header + trailing CRC: the fixed per-frame byte overhead.
inline constexpr size_t kFrameOverheadBytes = kFrameHeaderBytes + 4;

enum class WireMode : uint8_t { kRaw64 = 0, kInt8 = 1, kTopK = 2 };

/// Parses "raw64" | "int8" | "topk"; throws std::invalid_argument else.
WireMode parse_wire_mode(const std::string& name);
std::string wire_mode_name(WireMode mode);

/// Parsed header of a validated frame; `payload` aliases the frame bytes.
struct FrameView {
  WireMode mode = WireMode::kRaw64;
  uint32_t seq = 0;
  uint32_t total = 0;
  uint32_t dim = 0;
  uint32_t offset = 0;
  uint32_t count = 0;
  double scale = 0.0;
  std::span<const uint8_t> payload;
};

enum class DecodeStatus : uint8_t {
  kOk = 0,
  kTooShort,     ///< smaller than header + CRC
  kBadMagic,     ///< not a frame at all
  kBadVersion,   ///< future / corrupted version field
  kBadChecksum,  ///< CRC mismatch — treat as dropped
  kMalformed,    ///< CRC passed but fields are inconsistent
};

/// Validates and parses one frame.  Never throws, never reads outside
/// `frame`; on any non-kOk status `out` is unspecified.
DecodeStatus decode_frame(std::span<const uint8_t> frame, FrameView& out);

/// Scatters one validated chunk into `row` (`row.size()` must equal
/// `chunk.dim`; top-k receivers zero the row before the first chunk).
/// Returns false — without touching `row` — when the chunk's coordinate
/// range or entry indices do not fit the row (a forged-but-checksummed
/// frame cannot over-write).
bool apply_chunk(const FrameView& chunk, std::span<double> row);

/// Reusable frame storage: `append()` hands back retained per-frame
/// buffers, so encode → clear → encode cycles allocate nothing once the
/// buffers have warmed up at a given row shape.
class FrameBuffer {
 public:
  void clear() { count_ = 0; }
  size_t count() const { return count_; }
  std::span<const uint8_t> frame(size_t i) const { return bufs_[i]; }
  std::vector<uint8_t>& append();

 private:
  std::vector<std::vector<uint8_t>> bufs_;
  size_t count_ = 0;
};

/// Stateful row encoder: splits one row into `chunk_values` coordinates
/// (raw64/int8) or entries (topk) per frame.  Scratch (top-k candidate
/// order, int8 staging) is retained across calls — zero allocations
/// after warmup at a fixed dimension.
class FrameEncoder {
 public:
  /// `topk` = entries kept per row in kTopK mode (0 picks dim/10, min 1,
  /// capped at dim).  Throws std::invalid_argument when chunk_values == 0.
  FrameEncoder(WireMode mode, size_t chunk_values = 1024, size_t topk = 0);

  /// Encodes `row` as frames appended to `out` (not cleared first).
  /// Returns the number of frames appended (== chunks(row.size())).
  size_t encode_row(std::span<const double> row, FrameBuffer& out);

  /// Chunks a row of dimension `dim` splits into.
  size_t chunks(size_t dim) const;
  /// Total frame bytes (payload + per-frame overhead) for one row.
  size_t bytes_per_row(size_t dim) const;

  WireMode mode() const { return mode_; }
  size_t topk_for(size_t dim) const;

 private:
  void emit_frame(uint32_t seq, uint32_t total, uint32_t dim, uint32_t offset,
                  uint32_t count, double scale, std::span<const uint8_t> payload,
                  FrameBuffer& out);

  WireMode mode_;
  size_t chunk_values_;
  size_t topk_;
  std::vector<uint32_t> order_;    // top-k candidate indices
  std::vector<uint8_t> payload_;   // staging for int8 / topk payloads
};

}  // namespace dpbyz::net
