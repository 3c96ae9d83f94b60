// Tests for the persisted-state codec (utils/codec.hpp) and the two files
// written through it.  The corruption sweeps follow test_net.cpp's
// Frame.EveryByteFlipIsRejected: every single-byte flip and every cut of
// a small churn + adaptive trainer checkpoint raises a named
// std::runtime_error, and every flip of a campaign manifest either raises
// one or loads a strict prefix of the cells, never a changed cell.  The
// ASAN + UBSAN CI leg runs this file: the readers' no-over-read contract
// is only as strong as that leg.
#include "utils/codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "scratch_dir.hpp"

namespace dpbyz {
namespace {

std::span<const uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

void spill(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// XORs `mask` into the byte at `pos` of the file, in place.
void flip_byte(const std::string& path, size_t pos, char mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(pos));
  const char c = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(pos));
  f.put(static_cast<char>(c ^ mask));
}

// ---- words -----------------------------------------------------------------

TEST(Codec, Crc32MatchesTheIeeeCheckValueAndChains) {
  EXPECT_EQ(codec::crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(codec::crc32(bytes_of("")), 0u);
  EXPECT_EQ(codec::crc32(bytes_of("6789"), codec::crc32(bytes_of("12345"))),
            codec::crc32(bytes_of("123456789")));
}

/// One of every word and array kind, in the order read_sample reads them.
std::string sample_stream() {
  std::ostringstream os;
  codec::put_u64(os, 0x0123456789abcdefULL);
  codec::put_f64(os, -0.0);
  const uint64_t words[3] = {1, ~uint64_t{0}, 0};
  codec::put_u64s(os, words);
  codec::put_u64s(os, std::vector<uint64_t>{7, 8});
  codec::put_f64s(os, std::vector<double>{5e-324, std::nan("0x5"), 1.0 / 3.0});
  codec::put_bytes(os, std::string("a\0b\n", 4));
  codec::put_bytes(os, "");
  return os.str();
}

void read_sample(codec::Reader& in) {
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(std::signbit(in.f64()));
  EXPECT_EQ(in.u64s(), (std::vector<uint64_t>{1, ~uint64_t{0}, 0}));
  EXPECT_EQ(in.u64s(), (std::vector<uint64_t>{7, 8}));
  const std::vector<double> d = in.f64s();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(d[0]), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(d[1]), std::bit_cast<uint64_t>(std::nan("0x5")));
  EXPECT_EQ(d[2], 1.0 / 3.0);
  EXPECT_EQ(in.bytes(), std::string("a\0b\n", 4));
  EXPECT_EQ(in.bytes(), "");
}

TEST(Codec, WordsAndArraysRoundTripBitExactly) {
  std::istringstream is(sample_stream());
  codec::Reader in(is, "probe: short read");
  read_sample(in);
  EXPECT_EQ(is.peek(), std::istream::traits_type::eof());
}

TEST(Codec, EveryCutThrowsTheCallersMessage) {
  const std::string good = sample_stream();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::istringstream is(good.substr(0, cut));
    codec::Reader in(is, "probe: short read");
    try {
      read_sample(in);
      ADD_FAILURE() << "cut at " << cut << " read back whole";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "probe: short read") << "cut at " << cut;
    }
  }
}

TEST(Codec, InflatedCountsFailAsShortReadsNotAllocations) {
  for (const uint64_t count : {uint64_t{1} << 60, ~uint64_t{0}, uint64_t{5000}}) {
    std::ostringstream os;
    codec::put_u64(os, count);
    codec::put_u64(os, 42);  // one word where `count` were promised
    for (int kind = 0; kind < 3; ++kind) {
      std::istringstream is(os.str());
      codec::Reader in(is, "probe: short read");
      EXPECT_THROW(kind == 0   ? (void)in.bytes()
                   : kind == 1 ? (void)in.f64s()
                               : (void)in.u64s(),
                   std::runtime_error)
          << "count " << count << ", kind " << kind;
    }
  }
}

// ---- framed files ------------------------------------------------------------

/// read_framed of a file holding `bytes`; throws like it.
codec::Framed framed_of(std::string_view bytes) {
  const std::string path = testing_support::scratch_dir() + "framed.bin";
  spill(path, bytes);
  return codec::read_framed(path, "TESTMAGC", "probe").value();
}

TEST(Codec, FramedRecordsRoundTripAndEveryFlipOrCutIsCaught) {
  const std::string path = testing_support::scratch_dir() + "records.bin";
  const std::vector<std::string> records = {"first", "", std::string("\0\xff", 2)};
  codec::write_framed(path, "TESTMAGC", records);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const std::string good = slurp(path);
  EXPECT_EQ(framed_of(good).records, records);
  EXPECT_FALSE(framed_of(good).torn);
  EXPECT_THROW(codec::read_framed(path, "OTHERMAG", "probe"), std::runtime_error);
  EXPECT_EQ(codec::read_framed(path + ".absent", "TESTMAGC", "probe"), std::nullopt);

  // Whatever a flipped file yields is a prefix of the records, and the
  // flip is always noticed: by a throw, or by a torn tail.
  std::string bad = good;
  for (size_t pos = 0; pos < bad.size(); ++pos) {
    for (const char mask : {'\x01', '\x80', '\xff'}) {
      bad[pos] ^= mask;
      try {
        const codec::Framed got = framed_of(bad);
        EXPECT_TRUE(got.torn) << "flip at byte " << pos << " went unnoticed";
        ASSERT_LT(got.records.size(), records.size()) << "flip at byte " << pos;
        for (size_t k = 0; k < got.records.size(); ++k) ASSERT_EQ(got.records[k], records[k]);
      } catch (const std::runtime_error& e) {
        ASSERT_EQ(std::string(e.what()).rfind("probe: ", 0), 0u) << e.what();
      }
      bad[pos] ^= mask;
    }
  }
  // A cut file yields the records it still holds whole; a cut inside a
  // record is a torn tail.
  size_t whole = 0;  // records that end at or before the cut
  size_t end = 8;    // where the last of them (or the magic) ends
  for (size_t cut = 8; cut < good.size(); ++cut) {
    if (cut == end + 12 + records[whole].size()) end += 12 + records[whole++].size();
    const codec::Framed got = framed_of(std::string_view(good).substr(0, cut));
    ASSERT_EQ(got.records.size(), whole) << "cut at " << cut;
    for (size_t k = 0; k < whole; ++k) ASSERT_EQ(got.records[k], records[k]);
    EXPECT_EQ(got.torn, cut != end) << "cut at " << cut;
  }
}

TEST(Codec, WriteFailuresThrowNamingTheFile) {
  const std::string path = testing_support::scratch_dir() + "no/such/dir";
  try {
    codec::write_framed(path, "TESTMAGC", std::vector<std::string>{"x"});
    ADD_FAILURE() << "wrote into a missing directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ".tmp"), std::string::npos) << e.what();
  }
}

// ---- the trainer checkpoint ------------------------------------------------

/// A checkpoint with every kind of component state in it: worker
/// streams and velocity, an adaptive adversary's ledger, the round
/// engine's streams, a churned roster and a reputation book.
std::string small_checkpoint() {
  BlobsConfig blobs;
  blobs.num_samples = 120;
  blobs.num_features = 4;
  const Dataset full = make_blobs(blobs, 3);
  Rng split(5);
  auto [train, test] = full.split(90, split);
  const LinearModel model(4, LinearLoss::kMseOnSigmoid);

  ExperimentConfig c;
  c.steps = 6;
  c.eval_every = 3;
  c.batch_size = 5;
  c.num_workers = 4;
  c.num_byzantine = 1;
  c.gar = "median";
  c.attack_enabled = true;
  c.attack = "adaptive_alie";
  c.churn = "epoch";
  c.churn_epoch_rounds = 3;
  c.churn_join_prob = 1.0;
  c.checkpoint_every = 3;
  c.checkpoint_path = testing_support::scratch_dir() + "small.ckpt";
  std::remove(c.checkpoint_path.c_str());
  (void)Trainer(c, model, train, test).run();
  return c.checkpoint_path;
}

/// "" when load_checkpoint throws a runtime_error naming `path`; else why not.
std::string named_failure(const std::string& path) {
  try {
    (void)load_checkpoint(path);
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    return what.find("checkpoint '" + path + "'") == std::string::npos ? what : "";
  }
  return "loaded";
}

TEST(CheckpointCorruption, EveryByteFlipAndEveryCutRaisesANamedError) {
  const std::string path = small_checkpoint();
  const std::string good = slurp(path);
  ASSERT_TRUE(load_checkpoint(path).has_value());
  ASSERT_FALSE(load_checkpoint(path)->membership_blob.empty());
  ASSERT_FALSE(load_checkpoint(path)->attack_blob.empty());

  for (size_t pos = 0; pos < good.size(); ++pos) {
    flip_byte(path, pos, '\xff');
    ASSERT_EQ(named_failure(path), "") << "flip at byte " << pos;
    flip_byte(path, pos, '\xff');
  }
  ASSERT_EQ(slurp(path), good);
  for (size_t cut = good.size(); cut-- > 0;) {
    std::filesystem::resize_file(path, cut);
    ASSERT_EQ(named_failure(path), "") << "cut at " << cut;
  }
}

// ---- the campaign manifest -------------------------------------------------

TEST(ManifestCorruption, EveryByteFlipThrowsOrLoadsAStrictPrefix) {
  campaign::Manifest m;
  m.signature = "campaign-v4;probe";
  for (const size_t cell : {0, 3, 4}) {
    campaign::CellArtifact a;
    a.cell = cell;
    a.id = "cell" + std::to_string(cell);
    a.gar = "mda";
    a.attack = "little:1.5";
    a.eps = 0.2;
    a.seeds = 2;
    a.final_acc_mean = 0.9 + 0.01 * static_cast<double>(cell);
    a.final_loss_mean = 1.0 / 3.0;
    a.final_loss_std = 5e-324;
    a.mi_auc = std::nan("");
    m.completed[cell] = a;
  }
  const std::string path = testing_support::scratch_dir() + "manifest.bin";
  campaign::save_manifest(path, m);
  const size_t size = slurp(path).size();

  for (size_t pos = 0; pos < size; ++pos) {
    flip_byte(path, pos, '\xff');
    try {
      const campaign::Manifest back = campaign::load_manifest(path);
      EXPECT_EQ(back.signature, m.signature) << "flip at byte " << pos;
      EXPECT_LT(back.completed.size(), m.completed.size()) << "flip at byte " << pos;
      auto expected = m.completed.begin();
      for (const auto& [cell, artifact] : back.completed) {
        ASSERT_EQ(cell, expected->first) << "flip at byte " << pos;
        ASSERT_EQ(campaign::csv_cells(artifact), campaign::csv_cells(expected->second))
            << "flip at byte " << pos;
        ++expected;
      }
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    flip_byte(path, pos, '\xff');
  }
  EXPECT_EQ(campaign::load_manifest(path).completed.size(), m.completed.size());
}

}  // namespace
}  // namespace dpbyz
