// codec.hpp — the one binary format for persisted state: the trainer
// checkpoint (core/checkpoint.hpp), every save/load pair it carries, and
// the campaign manifest (campaign/checkpoint.hpp).
//
// Values are raw little-endian u64/f64 words; arrays are a u64 count,
// then the elements.  A framed file is an 8-byte magic, then records
// `u64 length | payload | u32 CRC-32 of length and payload`, written to
// a tmp file, fsynced and renamed over the target.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dpbyz::codec {

static_assert(std::endian::native == std::endian::little, "codec words are little-endian");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), continuing from
/// `crc` (0 starts a checksum).  Also the wire frames' (net/frame.hpp).
uint32_t crc32(std::span<const uint8_t> bytes, uint32_t crc = 0);

void put_u64(std::ostream& os, uint64_t v);
void put_f64(std::ostream& os, double v);
void put_u64s(std::ostream& os, std::span<const uint64_t> v);
void put_f64s(std::ostream& os, std::span<const double> v);
void put_bytes(std::ostream& os, std::string_view bytes);

/// Reads back what the put_* functions wrote, in the same order.  A
/// short read throws std::runtime_error(`error`); an array grows only
/// with the bytes really read, so a lying count cannot size an allocation.
class Reader {
 public:
  Reader(std::istream& is, std::string error) : is_(is), error_(std::move(error)) {}

  uint64_t u64();
  double f64();
  std::vector<uint64_t> u64s();
  std::vector<double> f64s();
  std::string bytes();

 private:
  void read(void* dst, size_t n);
  template <typename T>
  T array();

  std::istream& is_;
  std::string error_;
};

/// The bytes `save(os)` writes, and `load(is)` over `bytes`.
template <typename Save>
std::string encode(const Save& save) {
  std::ostringstream os;
  save(os);
  return std::move(os).str();
}

template <typename Load>
void decode(const std::string& bytes, const Load& load) {
  std::istringstream is(bytes);
  load(is);
}

/// Atomically replaces `path` with the framed file of `records`: writes
/// `path + ".tmp"`, fsyncs it, renames it over `path`.  Throws
/// std::runtime_error on any failure.
void write_framed(const std::string& path, std::string_view magic,
                  std::span<const std::string> records);

/// A framed file's whole records; `torn` when it ends inside one more.
struct Framed {
  std::vector<std::string> records;
  bool torn = false;
};

/// The framed file at `path`, or nullopt when there is none.  Throws
/// std::runtime_error, its message prefixed by `name`, on a wrong magic
/// or a record failing its CRC-32.
std::optional<Framed> read_framed(const std::string& path, std::string_view magic,
                                  const std::string& name);

}  // namespace dpbyz::codec
