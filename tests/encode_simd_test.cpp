// Tests for the vectorized base-encoding layer (dna/encode_simd.h) and the
// runtime dispatch around it (util/cpu.h). The scalar kernels are the
// definitional oracle — ClassifyBasesScalar is generated from BaseFromChar,
// PackCodesScalar is the original per-base loop — and every vector kernel
// the host supports must be byte-identical to them on every input shape:
// all 256 byte values, every length straddling a vector width, every
// misalignment. On top of the kernels, the users must be equivalence-stable
// too: SuperkmerScanner::Scan vs ScanCodes, AppendSuperkmer vs
// AppendSuperkmerCodes, and the full counter under PPA_FORCE_SCALAR.
#include "dna/encode_simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dbg/kmer_counter.h"
#include "dna/superkmer.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/cpu.h"

namespace ppa {
namespace {

std::string RandomBases(size_t size, uint64_t seed, double junk_rate = 0.0) {
  static constexpr char kAlphabet[] = "ACGTacgt";
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> base(0, 7);
  std::uniform_int_distribution<int> any(0, 255);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::string out(size, '\0');
  for (auto& c : out) {
    c = coin(rng) < junk_rate ? static_cast<char>(any(rng))
                              : kAlphabet[base(rng)];
  }
  return out;
}

TEST(EncodeSimdTest, KernelListIsScalarFirstAndScalarAlwaysSupported) {
  const auto kernels = AvailableEncodeKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels[0].name, "scalar");
  EXPECT_TRUE(kernels[0].supported);
}

// Every supported kernel classifies exactly like the scalar oracle: all
// 256 byte values, lengths 0..160 (covering 0..2 full vectors plus every
// tail), at every misalignment 0..15.
TEST(EncodeSimdTest, KernelsClassifyAllBytesLengthsAlignments) {
  // One buffer holding every byte value repeated, with slack for offsets.
  std::vector<char> raw(16 + 512);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<char>(i * 131 + 7);  // hits all 256 values
  }
  for (const EncodeKernel& kernel : AvailableEncodeKernels()) {
    if (!kernel.supported) continue;
    for (size_t offset : {0u, 1u, 7u, 15u}) {
      for (size_t len = 0; len <= 160; ++len) {
        const char* p = raw.data() + offset;
        std::vector<uint8_t> want(len + 1, 0xAA), got(len + 1, 0xAA);
        ClassifyBasesScalar(p, len, want.data());
        kernel.classify(p, len, got.data());
        ASSERT_EQ(got, want) << kernel.name << " offset=" << offset
                             << " len=" << len;
      }
    }
  }
}

// Same sweep for packing: random valid codes, every tail length, and the
// guarantee that the zero-padded tail byte is written (not OR'd into
// whatever was there).
TEST(EncodeSimdTest, KernelsPackAllLengthsWithZeroPaddedTails) {
  std::mt19937_64 rng(123);
  std::vector<uint8_t> codes(16 + 256);
  for (auto& c : codes) c = static_cast<uint8_t>(rng() & 3);
  for (const EncodeKernel& kernel : AvailableEncodeKernels()) {
    if (!kernel.supported) continue;
    for (size_t offset : {0u, 3u, 13u}) {
      for (size_t len = 0; len <= 200; ++len) {
        const uint8_t* p = codes.data() + offset;
        const size_t packed = (len + 3) / 4;
        // Poison the output so a skipped byte or an OR-into-garbage shows.
        std::vector<uint8_t> want(packed + 1, 0xFF), got(packed + 1, 0xFF);
        PackCodesScalar(p, len, want.data());
        kernel.pack(p, len, got.data());
        got.back() = want.back() = 0;  // the byte past the packed region
        ASSERT_EQ(got, want) << kernel.name << " offset=" << offset
                             << " len=" << len;
      }
    }
  }
}

// The dispatched entry points equal the oracle both ways: whatever level
// the host picks, and pinned to scalar via the RAII override.
TEST(EncodeSimdTest, DispatchMatchesScalarUnderBothModes) {
  const std::string bases = RandomBases(4093, 7, /*junk_rate=*/0.05);
  std::vector<uint8_t> want(bases.size()), got(bases.size());
  ClassifyBasesScalar(bases.data(), bases.size(), want.data());
  ClassifyBases(bases.data(), bases.size(), got.data());
  EXPECT_EQ(got, want);
  {
    ScopedForceScalar forced;
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    std::fill(got.begin(), got.end(), 0xEE);
    ClassifyBases(bases.data(), bases.size(), got.data());
    EXPECT_EQ(got, want);
  }
  // Replace invalid codes before packing (PackCodes requires 0..3).
  for (auto& c : want) {
    if (c > 3) c = 0;
  }
  std::vector<uint8_t> packed_want((want.size() + 3) / 4);
  std::vector<uint8_t> packed_got(packed_want.size());
  PackCodesScalar(want.data(), want.size(), packed_want.data());
  PackCodes(want.data(), want.size(), packed_got.data());
  EXPECT_EQ(packed_got, packed_want);
}

TEST(EncodeSimdTest, ClassifyMatchesBaseFromCharExactly) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    uint8_t code = 0xAA;
    ClassifyBases(&ch, 1, &code);
    const int want = BaseFromChar(ch);
    if (want < 0) {
      EXPECT_EQ(code, kInvalidBaseCode) << "char " << c;
    } else {
      EXPECT_EQ(code, static_cast<uint8_t>(want)) << "char " << c;
    }
  }
}

std::vector<Superkmer> CollectScan(SuperkmerScanner& scanner,
                                   std::string_view bases) {
  std::vector<Superkmer> out;
  scanner.Scan(bases, [&](const Superkmer& sk) { out.push_back(sk); });
  return out;
}

bool SameSuperkmers(const std::vector<Superkmer>& a,
                    const std::vector<Superkmer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].base_offset != b[i].base_offset ||
        a[i].base_length != b[i].base_length ||
        a[i].windows != b[i].windows || a[i].minimizer != b[i].minimizer ||
        a[i].minimizer_hash != b[i].minimizer_hash) {
      return false;
    }
  }
  return true;
}

// Scan (classify + ScanCodes) emits the same runs under vector dispatch as
// pinned to scalar, and the same runs as hand-classified ScanCodes input —
// including on N runs, short fragments and poly-A.
TEST(EncodeSimdTest, ScanEqualsScanCodesAcrossDispatchModes) {
  const std::vector<std::string> inputs = {
      RandomBases(3000, 21),
      RandomBases(3000, 22, /*junk_rate=*/0.02),
      "ACGTACGTNNNNNNNNNNACGTACGATCGATTACA",
      "ACGTACG",
      std::string(200, 'A'),
      "",
  };
  for (int L : {15, 31}) {
    for (int m : {7, 11}) {
      SuperkmerScanner scanner(L, m);
      for (const std::string& bases : inputs) {
        const auto dispatched = CollectScan(scanner, bases);
        std::vector<Superkmer> forced;
        {
          ScopedForceScalar scalar;
          forced = CollectScan(scanner, bases);
        }
        EXPECT_TRUE(SameSuperkmers(dispatched, forced))
            << "L=" << L << " m=" << m << " len=" << bases.size();
        // Pre-classified entry point agrees with the string one.
        std::vector<uint8_t> codes(bases.size());
        ClassifyBases(bases.data(), bases.size(), codes.data());
        std::vector<Superkmer> via_codes;
        scanner.ScanCodes(codes.data(), codes.size(), [&](const Superkmer& sk) {
          via_codes.push_back(sk);
        });
        EXPECT_TRUE(SameSuperkmers(dispatched, via_codes))
            << "L=" << L << " m=" << m << " len=" << bases.size();
      }
    }
  }
}

// The packed record bytes are part of the spill/wire formats, so the
// code-path variant must produce byte-identical records to the original
// string-based encoder.
TEST(EncodeSimdTest, AppendSuperkmerCodesMatchesStringEncoder) {
  std::mt19937_64 rng(77);
  for (size_t len : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 127u, 1000u}) {
    std::string bases(len, 'A');
    std::vector<uint8_t> codes(len);
    for (size_t i = 0; i < len; ++i) {
      codes[i] = static_cast<uint8_t>(rng() & 3);
      bases[i] = "ACGT"[codes[i]];
    }
    std::vector<uint8_t> want, got;
    // Nonempty prefixes check the append-at-tail arithmetic.
    want.push_back(0x5A);
    got.push_back(0x5A);
    const size_t want_n = AppendSuperkmer(bases, &want);
    const size_t got_n = AppendSuperkmerCodes(codes.data(), len, &got);
    EXPECT_EQ(got_n, want_n) << "len=" << len;
    EXPECT_EQ(got, want) << "len=" << len;
  }
}

std::vector<Read> SimulatedReads(uint64_t genome_length, double coverage,
                                 double error_rate, uint64_t seed) {
  GenomeConfig genome_config;
  genome_config.length = genome_length;
  genome_config.seed = seed;
  PackedSequence reference = GenerateGenome(genome_config);
  ReadSimConfig read_config;
  read_config.coverage = coverage;
  read_config.error_rate = error_rate;
  read_config.seed = seed + 1;
  return SimulateReads(reference, read_config);
}

using Pair = std::pair<uint64_t, uint32_t>;

std::vector<std::vector<Pair>> SortedPartitions(const MerCounts& counts) {
  std::vector<std::vector<Pair>> out;
  out.reserve(counts.size());
  for (const auto& part : counts) {
    std::vector<Pair> sorted(part.begin(), part.end());
    std::sort(sorted.begin(), sorted.end());
    out.push_back(std::move(sorted));
  }
  return out;
}

// End-to-end counter equivalence across dispatch modes: the full sharded
// counter (1 and 4 threads) produces bit-identical
// partitioned counts whether the SIMD kernels are active or pinned off,
// and both match the serial reference.
TEST(EncodeSimdTest, CounterBitIdenticalAcrossDispatchModes) {
  std::vector<Read> reads = SimulatedReads(15000, 10.0, 0.01, 5);
  reads.push_back({"n_runs", "ACGTACGTNNNNNNNNNNACGTACGATCGATTACA", ""});
  reads.push_back({"short", "ACGTACG", ""});
  reads.push_back({"poly_a", std::string(200, 'A'), ""});
  for (int k : {15, 31}) {
    for (int m : {7, 11}) {
      KmerCountConfig config;
      config.mer_length = k;
      config.minimizer_len = m;
      config.num_workers = 4;
      config.coverage_threshold = 2;
      const auto serial =
          SortedPartitions(CountCanonicalMersSerial(reads, config));
      for (unsigned threads : {1u, 4u}) {
        config.num_threads = threads;
        const auto dispatched =
            SortedPartitions(CountCanonicalMers(reads, config));
        std::vector<std::vector<Pair>> forced;
        {
          ScopedForceScalar scalar;
          forced = SortedPartitions(CountCanonicalMers(reads, config));
        }
        EXPECT_EQ(dispatched, serial)
            << "k=" << k << " m=" << m << " threads=" << threads;
        EXPECT_EQ(forced, serial) << "k=" << k << " m=" << m
                                  << " threads=" << threads
                                  << " (forced scalar)";
      }
    }
  }
}

}  // namespace
}  // namespace ppa
