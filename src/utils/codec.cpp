#include "utils/codec.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace dpbyz::codec {

namespace {

/// Slicing-by-8: kCrc[0] is the bytewise table, and kCrc[s][i] is
/// kCrc[0][i] carried through s more zero bytes.
constexpr auto kCrc = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t s = 1; s < t.size(); ++s)
    for (uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return t;
}();

std::span<const uint8_t> as_bytes(const void* src, size_t n) {
  return {static_cast<const uint8_t*>(src), n};
}

void put_raw(std::ostream& os, const void* src, size_t n) {
  os.write(static_cast<const char*>(src), static_cast<std::streamsize>(n));
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> bytes, uint32_t crc) {
  uint32_t c = ~crc;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, sizeof w);
    w ^= c;
    c = 0;
    for (int s = 0; s < 8; ++s) c ^= kCrc[7 - s][(w >> (8 * s)) & 0xFFu];
  }
  for (; i < bytes.size(); ++i) c = kCrc[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

void put_u64(std::ostream& os, uint64_t v) { put_raw(os, &v, sizeof v); }
void put_f64(std::ostream& os, double v) { put_raw(os, &v, sizeof v); }
void put_u64s(std::ostream& os, std::span<const uint64_t> v) {
  put_u64(os, v.size());
  put_raw(os, v.data(), v.size_bytes());
}
void put_f64s(std::ostream& os, std::span<const double> v) {
  put_u64(os, v.size());
  put_raw(os, v.data(), v.size_bytes());
}
void put_bytes(std::ostream& os, std::string_view bytes) {
  put_u64(os, bytes.size());
  put_raw(os, bytes.data(), bytes.size());
}

void Reader::read(void* dst, size_t n) {
  is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(is_.gcount()) != n) throw std::runtime_error(error_);
}

uint64_t Reader::u64() {
  uint64_t v;
  read(&v, sizeof v);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

template <typename T>
T Reader::array() {
  const uint64_t n = u64();
  T out;
  while (out.size() < n) {  // 4096 at a time: a lying count fails as a short read
    const size_t done = out.size();
    out.resize(done + static_cast<size_t>(std::min<uint64_t>(4096, n - done)));
    read(out.data() + done, (out.size() - done) * sizeof(out[0]));
  }
  return out;
}

std::vector<uint64_t> Reader::u64s() { return array<std::vector<uint64_t>>(); }
std::vector<double> Reader::f64s() { return array<std::vector<double>>(); }
std::string Reader::bytes() { return array<std::string>(); }

void write_framed(const std::string& path, std::string_view magic,
                  std::span<const std::string> records) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  bool ok = f != nullptr;
  auto put = [&](const void* p, size_t n) { ok = ok && std::fwrite(p, 1, n, f) == n; };
  put(magic.data(), magic.size());
  for (const std::string& payload : records) {
    const uint64_t length = payload.size();
    const uint32_t crc = crc32(as_bytes(payload.data(), payload.size()),
                               crc32(as_bytes(&length, sizeof length)));
    put(&length, sizeof length);
    put(payload.data(), payload.size());
    put(&crc, sizeof crc);
  }
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = (f != nullptr && std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot write '" + tmp + "' and rename it over '" + path +
                             "': " + std::strerror(errno));
}

std::optional<Framed> read_framed(const std::string& path, std::string_view magic,
                                  const std::string& name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = std::move(buffer).str();
  if (!file.starts_with(magic))
    throw std::runtime_error(name + ": wrong magic (not a '" + std::string(magic) +
                             "' file)");
  constexpr size_t kFrame = sizeof(uint64_t) + sizeof(uint32_t);  // length + CRC
  Framed out;
  for (size_t pos = magic.size(); pos < file.size();) {
    const size_t left = file.size() - pos;
    uint64_t length = 0;
    if (left >= kFrame) std::memcpy(&length, &file[pos], sizeof length);
    if (left < kFrame || length > left - kFrame) {
      out.torn = true;
      break;
    }
    const std::string_view framed =
        std::string_view(file).substr(pos, sizeof length + length);
    uint32_t stored;
    std::memcpy(&stored, framed.data() + framed.size(), sizeof stored);
    if (crc32(as_bytes(framed.data(), framed.size())) != stored)
      throw std::runtime_error(name + ": record " + std::to_string(out.records.size()) +
                               " fails its CRC-32 check");
    out.records.emplace_back(framed.substr(sizeof length));
    pos += framed.size() + sizeof stored;
  }
  return out;
}

}  // namespace dpbyz::codec
