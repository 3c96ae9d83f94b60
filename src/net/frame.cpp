#include "net/frame.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/vector_ops.hpp"
#include "utils/codec.hpp"
#include "utils/errors.hpp"

namespace dpbyz::net {

namespace {

// Little-endian field accessors.  The simulated links live inside one
// process, so "little-endian" is a documented convention rather than a
// portability layer; memcpy keeps them free of alignment traps either way.
template <typename T>
void store_le(uint8_t* dst, T value) {
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
T load_le(const uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

size_t payload_value_bytes(WireMode mode) {
  return mode == WireMode::kInt8 ? 1 : sizeof(double);
}

}  // namespace

WireMode parse_wire_mode(const std::string& name) {
  if (name == "raw64") return WireMode::kRaw64;
  if (name == "int8") return WireMode::kInt8;
  throw std::invalid_argument("parse_wire_mode: unknown wire mode '" + name +
                              "' (expected raw64|int8)");
}

std::string wire_mode_name(WireMode mode) {
  return mode == WireMode::kInt8 ? "int8" : "raw64";
}

DecodeStatus decode_frame(std::span<const uint8_t> frame, FrameView& out) {
  if (frame.size() < kFrameOverheadBytes) return DecodeStatus::kTooShort;
  const uint8_t* p = frame.data();
  if (load_le<uint32_t>(p + 0) != kFrameMagic) return DecodeStatus::kBadMagic;
  if (load_le<uint16_t>(p + 4) != kWireVersion) return DecodeStatus::kBadVersion;

  const uint32_t payload_bytes = load_le<uint32_t>(p + 28);
  // The declared extent must match the span exactly before the CRC can
  // be located — a truncated or padded frame is rejected here without
  // ever reading past frame.end().
  if (payload_bytes != frame.size() - kFrameOverheadBytes) return DecodeStatus::kTooShort;
  const uint32_t stored_crc = load_le<uint32_t>(p + kFrameHeaderBytes + payload_bytes);
  if (codec::crc32(frame.first(kFrameHeaderBytes + payload_bytes)) != stored_crc)
    return DecodeStatus::kBadChecksum;

  const uint8_t mode_byte = p[6];
  if (mode_byte > static_cast<uint8_t>(WireMode::kInt8)) return DecodeStatus::kMalformed;
  out.mode = static_cast<WireMode>(mode_byte);
  out.seq = load_le<uint32_t>(p + 8);
  out.total = load_le<uint32_t>(p + 12);
  out.dim = load_le<uint32_t>(p + 16);
  out.offset = load_le<uint32_t>(p + 20);
  out.count = load_le<uint32_t>(p + 24);
  out.scale = load_le<double>(p + 32);
  out.payload = frame.subspan(kFrameHeaderBytes, payload_bytes);

  if (out.total == 0 || out.seq >= out.total) return DecodeStatus::kMalformed;
  if (out.count * payload_value_bytes(out.mode) != payload_bytes)
    return DecodeStatus::kMalformed;
  if (out.mode == WireMode::kInt8 && !std::isfinite(out.scale))
    return DecodeStatus::kMalformed;
  return DecodeStatus::kOk;
}

bool apply_chunk(const FrameView& chunk, std::span<double> row) {
  if (chunk.dim != row.size() || chunk.offset > row.size() ||
      chunk.count > row.size() - chunk.offset)
    return false;
  const uint8_t* p = chunk.payload.data();
  if (chunk.mode == WireMode::kInt8)
    vec::dequantize_int8({reinterpret_cast<const int8_t*>(p), chunk.count},
                         chunk.scale, row.subspan(chunk.offset, chunk.count));
  else
    std::memcpy(row.data() + chunk.offset, p, chunk.count * sizeof(double));
  return true;
}

std::vector<uint8_t>& FrameBuffer::append() {
  if (count_ == bufs_.size()) bufs_.emplace_back();
  return bufs_[count_++];
}

FrameEncoder::FrameEncoder(WireMode mode, size_t chunk_values)
    : mode_(mode), chunk_values_(chunk_values) {
  require(chunk_values >= 1, "FrameEncoder: chunk_values must be >= 1");
}

size_t FrameEncoder::chunks(size_t dim) const {
  return std::max<size_t>((dim + chunk_values_ - 1) / chunk_values_, 1);
}

size_t FrameEncoder::bytes_per_row(size_t dim) const {
  return dim * payload_value_bytes(mode_) + chunks(dim) * kFrameOverheadBytes;
}

void FrameEncoder::emit_frame(uint32_t seq, uint32_t total, uint32_t dim,
                              uint32_t offset, uint32_t count, double scale,
                              std::span<const uint8_t> payload, FrameBuffer& out) {
  std::vector<uint8_t>& frame = out.append();
  frame.resize(kFrameOverheadBytes + payload.size());
  uint8_t* p = frame.data();
  store_le<uint32_t>(p + 0, kFrameMagic);
  store_le<uint16_t>(p + 4, kWireVersion);
  p[6] = static_cast<uint8_t>(mode_);
  p[7] = 0;
  store_le<uint32_t>(p + 8, seq);
  store_le<uint32_t>(p + 12, total);
  store_le<uint32_t>(p + 16, dim);
  store_le<uint32_t>(p + 20, offset);
  store_le<uint32_t>(p + 24, count);
  store_le<uint32_t>(p + 28, static_cast<uint32_t>(payload.size()));
  store_le<double>(p + 32, scale);
  if (!payload.empty()) std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
  const size_t framed = kFrameHeaderBytes + payload.size();
  store_le<uint32_t>(p + framed, codec::crc32(std::span<const uint8_t>(p, framed)));
}

size_t FrameEncoder::encode_row(std::span<const double> row, FrameBuffer& out) {
  require(!row.empty(), "FrameEncoder::encode_row: empty row");
  require(row.size() <= 0xFFFFFFFFull, "FrameEncoder::encode_row: dim exceeds u32");
  const uint32_t dim = static_cast<uint32_t>(row.size());
  const uint32_t total = static_cast<uint32_t>(chunks(row.size()));

  // raw64 sends the row's own bytes; int8 quantizes the whole row once
  // (one scale per row) and sends slices of the staged bytes.
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(row.data());
  double scale = 0.0;
  if (mode_ == WireMode::kInt8) {
    payload_.resize(row.size());
    scale = vec::quantize_int8(
        row, {reinterpret_cast<int8_t*>(payload_.data()), payload_.size()});
    bytes = payload_.data();
  }
  const size_t width = payload_value_bytes(mode_);
  for (uint32_t seq = 0; seq < total; ++seq) {
    const uint32_t offset = seq * static_cast<uint32_t>(chunk_values_);
    const uint32_t count =
        static_cast<uint32_t>(std::min(chunk_values_, row.size() - offset));
    emit_frame(seq, total, dim, offset, count, scale,
               {bytes + offset * width, count * width}, out);
  }
  return total;
}

}  // namespace dpbyz::net
