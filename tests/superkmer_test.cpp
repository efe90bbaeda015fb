// Tests for the super-k-mer scanner/codec (dna/superkmer.h): run structure
// (every window in exactly one run, constant minimizer per run), strand
// invariance of the minimizer (the property the counter's shard routing
// relies on), codec round-trips, long-run splitting, and malformed-input
// rejection.
#include "dna/superkmer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dna/kmer.h"
#include "util/hash.h"

namespace ppa {
namespace {

/// Reference scan: canonical codes of every L-window, split at non-ACGT —
/// the raw-path semantics the super-k-mer pipeline must replay.
std::vector<uint64_t> RawWindowCodes(const std::string& bases, int L) {
  std::vector<uint64_t> codes;
  KmerWindow window(L);
  for (char c : bases) {
    int b = BaseFromChar(c);
    if (b < 0) {
      window.Reset();
      continue;
    }
    if (window.Push(static_cast<uint8_t>(b))) {
      codes.push_back(window.Current().Canonical().code());
    }
  }
  return codes;
}

std::vector<Superkmer> ScanAll(const std::string& bases, int L, int m) {
  std::vector<Superkmer> out;
  SuperkmerScanner scanner(L, m);
  scanner.Scan(bases, [&](const Superkmer& sk) { out.push_back(sk); });
  return out;
}

/// Reverse complement of an ASCII sequence.
std::string Rc(const std::string& s) {
  std::string out;
  for (auto it = s.rbegin(); it != s.rend(); ++it) {
    out += CharFromBase(ComplementBase(
        static_cast<uint8_t>(BaseFromChar(*it))));
  }
  return out;
}

std::string RandomBases(size_t n, uint64_t seed) {
  std::string s;
  uint64_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = Mix64(x + i);
    s += CharFromBase(x & 3);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Scanner structure.
// ---------------------------------------------------------------------------

TEST(SuperkmerScannerTest, RunsPartitionAllWindows) {
  const std::string bases = RandomBases(500, 7) + "N" + RandomBases(40, 9) +
                            "NN" + RandomBases(3, 11);
  for (int L : {5, 15, 31}) {
    for (int m : {3, 7, 11}) {
      const std::vector<uint64_t> raw = RawWindowCodes(bases, L);
      std::vector<uint64_t> replayed;
      uint64_t windows = 0;
      SuperkmerScanner scanner(L, m);
      scanner.Scan(bases, [&](const Superkmer& sk) {
        EXPECT_EQ(sk.windows + L - 1, sk.base_length);
        EXPECT_EQ(sk.minimizer_hash, Mix64(sk.minimizer));
        windows += sk.windows;
        // Replay the run's windows from the referenced bases.
        for (uint64_t c :
             RawWindowCodes(bases.substr(sk.base_offset, sk.base_length), L)) {
          replayed.push_back(c);
        }
      });
      EXPECT_EQ(windows, raw.size()) << "L=" << L << " m=" << m;
      EXPECT_EQ(replayed, raw) << "L=" << L << " m=" << m;
    }
  }
}

TEST(SuperkmerScannerTest, MinimizerIsTheMixOrderedCanonicalMmerMin) {
  const std::string bases = RandomBases(200, 31);
  const int L = 15, m = 5;
  size_t covered = 0;
  SuperkmerScanner scanner(L, m);
  scanner.Scan(bases, [&](const Superkmer& sk) {
    // For every window of the run, the brute-force minimizer must equal the
    // run's minimizer.
    for (uint32_t w = 0; w + L <= sk.base_length; ++w) {
      uint64_t best = ~0ULL, best_code = 0;
      for (int p = 0; p + m <= L; ++p) {
        Kmer mmer = Kmer::FromString(
            std::string_view(bases).substr(sk.base_offset + w + p, m));
        const uint64_t canon = mmer.Canonical().code();
        if (Mix64(canon) < best) {
          best = Mix64(canon);
          best_code = canon;
        }
      }
      EXPECT_EQ(best_code, sk.minimizer) << "window " << w;
      EXPECT_EQ(best, sk.minimizer_hash);
      ++covered;
    }
  });
  EXPECT_EQ(covered, RawWindowCodes(bases, L).size());
}

// The shard-routing soundness property: a window and its reverse complement
// see the same minimizer, so every occurrence of a canonical mer — from
// either strand — lands in the same shard.
TEST(SuperkmerScannerTest, MinimizerIsStrandInvariant) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::string fwd = RandomBases(80, seed);
    const std::string rev = Rc(fwd);
    for (int L : {9, 21, 32}) {
      const int m = 7;
      // Collect minimizer per canonical window code from both strands; the
      // maps must agree wherever they share codes (they cover the same
      // canonical windows by construction).
      auto collect = [&](const std::string& bases) {
        std::map<uint64_t, uint64_t> code_to_min;
        SuperkmerScanner scanner(L, m);
        scanner.Scan(bases, [&](const Superkmer& sk) {
          for (uint64_t c : RawWindowCodes(
                   bases.substr(sk.base_offset, sk.base_length), L)) {
            code_to_min[c] = sk.minimizer;
          }
        });
        return code_to_min;
      };
      const auto fwd_mins = collect(fwd);
      const auto rev_mins = collect(rev);
      ASSERT_EQ(fwd_mins.size(), rev_mins.size());
      for (const auto& [code, minimizer] : fwd_mins) {
        auto it = rev_mins.find(code);
        ASSERT_NE(it, rev_mins.end());
        EXPECT_EQ(it->second, minimizer) << "L=" << L << " seed=" << seed;
      }
    }
  }
}

TEST(SuperkmerScannerTest, ShortAndEmptyInputsEmitNothing) {
  for (const std::string& bases :
       {std::string(""), std::string("ACGT"), std::string(14, 'C'),
        std::string("ACGTNNNNACGTACG")}) {
    EXPECT_TRUE(ScanAll(bases, 15, 7).empty()) << bases;
  }
  // Exactly one window.
  const std::string one = RandomBases(15, 3);
  auto runs = ScanAll(one, 15, 7);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].windows, 1u);
  EXPECT_EQ(runs[0].base_offset, 0u);
  EXPECT_EQ(runs[0].base_length, 15u);
}

TEST(SuperkmerScannerTest, MinimizerLengthIsClampedToMerLength) {
  const std::string bases = RandomBases(30, 17);
  SuperkmerScanner scanner(5, 11);  // m > L: clamped to 5
  EXPECT_EQ(scanner.effective_minimizer_length(), 5);
  // With m == L every window is its own minimizer; runs still partition.
  uint64_t windows = 0;
  scanner.Scan(bases, [&](const Superkmer& sk) { windows += sk.windows; });
  EXPECT_EQ(windows, RawWindowCodes(bases, 5).size());
}

// Low-complexity sequence: one minimizer value can hold for longer than
// kMaxSuperkmerBases; the scanner must split runs at the cap.
TEST(SuperkmerScannerTest, LongHomopolymerRunsAreSplitAtTheCap) {
  const std::string bases(3 * kMaxSuperkmerBases, 'A');
  const int L = 31, m = 11;
  uint64_t windows = 0;
  uint32_t max_len = 0;
  size_t runs = 0;
  SuperkmerScanner scanner(L, m);
  scanner.Scan(bases, [&](const Superkmer& sk) {
    windows += sk.windows;
    max_len = std::max(max_len, sk.base_length);
    ++runs;
  });
  EXPECT_EQ(windows, bases.size() - L + 1);
  EXPECT_LE(max_len, kMaxSuperkmerBases);
  EXPECT_GE(runs, 3u);
}

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

TEST(SuperkmerCodecTest, RoundTripsScannerOutput) {
  const std::string bases =
      RandomBases(400, 23) + "N" + RandomBases(60, 29);
  for (int L : {7, 21, 32}) {
    const int m = 7;
    std::vector<uint8_t> buf;
    SuperkmerScanner scanner(L, m);
    scanner.Scan(bases, [&](const Superkmer& sk) {
      AppendSuperkmer(std::string_view(bases).substr(sk.base_offset,
                                                     sk.base_length),
                      &buf);
    });
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(DecodeSuperkmersToVector(buf.data(), buf.size(), L, &decoded));
    EXPECT_EQ(decoded, RawWindowCodes(bases, L)) << "L=" << L;

    SuperkmerChunkSummary summary;
    ASSERT_TRUE(SummarizeSuperkmerChunk(buf.data(), buf.size(), L, &summary));
    EXPECT_EQ(summary.windows, decoded.size());
    // The whole point: far fewer bytes than 8 per window.
    EXPECT_LT(buf.size(), decoded.size() * sizeof(uint64_t));
  }
}

TEST(SuperkmerCodecTest, RejectsMalformedChunks) {
  const int L = 11;
  std::vector<uint64_t> decoded;

  // Truncated packed bases.
  std::vector<uint8_t> buf;
  AppendSuperkmer(RandomBases(20, 5), &buf);
  std::vector<uint8_t> truncated(buf.begin(), buf.end() - 1);
  EXPECT_FALSE(DecodeSuperkmersToVector(truncated.data(), truncated.size(), L,
                                        &decoded));

  // Truncated varint header.
  std::vector<uint8_t> dangling = {0x80};
  EXPECT_FALSE(DecodeSuperkmersToVector(dangling.data(), dangling.size(), L,
                                        &decoded));

  // A record with no full window (base_length < L).
  std::vector<uint8_t> no_window;
  AppendSuperkmer(RandomBases(L - 1, 5), &no_window);
  EXPECT_FALSE(DecodeSuperkmersToVector(no_window.data(), no_window.size(), L,
                                        &decoded));
  SuperkmerChunkSummary summary;
  EXPECT_FALSE(SummarizeSuperkmerChunk(no_window.data(), no_window.size(), L,
                                       &summary));

  // A base length implying more packed bytes than the chunk holds, large
  // enough to overflow a naive byte-count comparison.
  std::vector<uint8_t> huge;
  PutVarint64(&huge, UINT64_MAX);
  huge.push_back(0);
  EXPECT_FALSE(DecodeSuperkmersToVector(huge.data(), huge.size(), L,
                                        &decoded));
}

TEST(SuperkmerCodecTest, PackingIsTwoBitsLsbFirst) {
  // "ACGT" packs into one byte: A=00 at bits 0-1 ... T=11 at bits 6-7.
  std::vector<uint8_t> buf;
  AppendSuperkmer("ACGT", &buf);
  ASSERT_EQ(buf.size(), 2u);  // varint(4), 1 packed byte
  EXPECT_EQ(buf[0], 4u);
  EXPECT_EQ(buf[1], 0b11100100);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeSuperkmersToVector(buf.data(), buf.size(), 4, &decoded));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], Kmer::FromString("ACGT").Canonical().code());
}

}  // namespace
}  // namespace ppa
