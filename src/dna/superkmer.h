// Minimizer-bucketed super-k-mers: the pass-1 shuffle unit of the sharded
// (k+1)-mer counter (dbg/kmer_counter.h).
//
// Consecutive L-base windows of a read share L-1 bases, so shipping one
// 8-byte canonical code per window would move ~8 bytes per base of input. The
// super-k-mer design of KMC2/Gerbil instead splits each read into maximal
// runs of consecutive windows that share one *minimizer* — the smallest
// m-mer of the window — and ships each run once as 2-bit-packed bases. A
// run of w windows covers w + L - 1 bases, i.e. ~(w + L - 1) / 4 + header
// bytes for w windows, which cuts the shuffle volume several-fold.
//
// Two properties make the encoding safe for the counter:
//
//   * Strand invariance. The minimizer orders the *canonical* m-mers of a
//     window (min of an m-mer and its reverse complement), and a window and
//     its reverse complement contain exactly the same canonical m-mer
//     multiset — so a canonical (k+1)-mer maps to the same minimizer (and
//     therefore the same count shard) no matter which strand a read sampled.
//     Without this, one mer's occurrences would split across shards and the
//     per-shard coverage filter would be wrong.
//
//   * Skew resistance. Minimizers are ordered by Mix64 of the canonical
//     m-mer code, not lexicographically, so low-complexity sequence (poly-A
//     runs, which lexicographic minimizers famously pile onto one bucket)
//     picks minimizers like any other sequence. The ordering key is not a
//     routing key, though: as the smallest of a window's L - m + 1 keys its
//     high bits lean heavily toward zero. The counter therefore routes a run
//     by a re-mixed hash of its minimizer (dbg/kmer_counter.cpp, ShardOf),
//     the way KMC 2 maps signatures to bins in a separate step.
//
// The decoder replays a packed run through the same canonical arithmetic as
// KmerWindow + Kmer::Canonical, so the multiset of canonical window codes is
// bit-identical to a direct scan of the reads — which is what keeps the
// serial counter (CountCanonicalMersSerial) a valid oracle.
#ifndef PPA_DNA_SUPERKMER_H_
#define PPA_DNA_SUPERKMER_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dna/encode_simd.h"
#include "dna/kmer.h"
#include "dna/nucleotide.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ppa {

/// Cap on the bases one super-k-mer record may cover. Runs that exceed it
/// (possible on low-complexity sequence, where one minimizer value can hold
/// for arbitrarily long) are split, re-shipping L-1 overlap bases, so that
/// a single record — and therefore a single pass-1 chunk — stays small and
/// the bounded-queue admission clamp in CounterSession has a hard ceiling.
inline constexpr uint32_t kMaxSuperkmerBases = 1024;

/// Upper bound on one encoded record: the base-length varint plus the
/// packed bases. Used to clamp queue bounds so any record is admissible.
inline constexpr size_t kMaxSuperkmerRecordBytes =
    VarintLength(kMaxSuperkmerBases) + (kMaxSuperkmerBases + 3) / 4;

/// One maximal run of consecutive windows sharing a minimizer, as a view
/// into the scanned read (the scanner never copies bases).
struct Superkmer {
  uint32_t base_offset = 0;  // first base of the run, index into the read
  uint32_t base_length = 0;  // bases covered = windows + L - 1
  uint32_t windows = 0;      // L-windows this run replays
  uint64_t minimizer = 0;       // canonical m-mer code shared by the run
  uint64_t minimizer_hash = 0;  // Mix64(minimizer): the ordering key
};

/// Splits reads into super-k-mers. L = mer_length is the counted window
/// length ((k+1) in DBG construction); m = minimizer_length is clamped to
/// min(m, L, 31) so every window holds at least one full m-mer. Reusable
/// across reads; not thread-safe (one scanner per scanner thread).
class SuperkmerScanner {
 public:
  SuperkmerScanner(int mer_length, int minimizer_length)
      : L_(mer_length),
        m_(std::min({minimizer_length, mer_length, 31})),
        mmask_((1ULL << (2 * m_)) - 1) {
    PPA_CHECK(mer_length >= 1 && mer_length <= kMaxMerLength);
    PPA_CHECK(minimizer_length >= 1);
  }

  int mer_length() const { return L_; }
  /// The minimizer length actually used (after clamping to mer_length).
  int effective_minimizer_length() const { return m_; }

  /// Calls fn(const Superkmer&) for each run of `bases`, splitting at
  /// non-ACGT characters exactly like ScanCanonicalMers. Every window of
  /// every fragment lands in exactly one emitted run; reads shorter than L
  /// (or fragments shorter than L) emit nothing. Classifies the bases
  /// (dna/encode_simd.h, vectorized when dispatch allows) into an internal
  /// buffer and runs ScanCodes — the two entry points share one loop, so
  /// they cannot drift.
  template <typename Fn>
  void Scan(std::string_view bases, Fn&& fn) {
    codes_.resize(bases.size());
    ClassifyBases(bases.data(), bases.size(), codes_.data());
    ScanCodes(codes_.data(), bases.size(), static_cast<Fn&&>(fn));
  }

  /// Same contract as Scan, over pre-classified 2-bit codes (values > 3 =
  /// invalid base). This is the loop itself; offsets in the emitted
  /// Superkmer index into `codes`.
  template <typename Fn>
  void ScanCodes(const uint8_t* codes, size_t size, Fn&& fn) {
    size_t frag_start = 0;  // first base of the current ACGT fragment
    uint64_t fwd = 0, rc = 0;
    int mmer_filled = 0;
    head_ = tail_ = 0;

    // Current run of equal-minimizer windows.
    bool run_active = false;
    uint64_t run_key = 0, run_value = 0;
    size_t run_start = 0;
    uint32_t run_windows = 0;
    const uint32_t max_windows = kMaxSuperkmerBases - L_ + 1;

    auto emit = [&](size_t last_window_end) {
      Superkmer sk;
      sk.base_offset = static_cast<uint32_t>(run_start);
      sk.base_length = static_cast<uint32_t>(last_window_end + 1 - run_start);
      sk.windows = run_windows;
      sk.minimizer = run_value;
      sk.minimizer_hash = run_key;
      fn(static_cast<const Superkmer&>(sk));
    };

    for (size_t i = 0; i <= size; ++i) {
      const int b = i < size && codes[i] <= 3 ? codes[i] : -1;
      if (b < 0) {
        // Fragment boundary (or end of read): close the open run, whose
        // last window ended at i - 1.
        if (run_active) emit(i - 1);
        run_active = false;
        run_windows = 0;
        mmer_filled = 0;
        head_ = tail_ = 0;
        frag_start = i + 1;
        continue;
      }
      fwd = ((fwd << 2) | static_cast<uint64_t>(b)) & mmask_;
      rc = (rc >> 2) |
           (static_cast<uint64_t>(ComplementBase(static_cast<uint8_t>(b)))
            << (2 * (m_ - 1)));
      if (mmer_filled < m_) ++mmer_filled;
      if (mmer_filled == m_) {
        // m-mer ending at i: push its canonical Mix64 key onto the
        // monotonic deque (pop dominated entries; '>' keeps the leftmost of
        // equal keys, which only affects tie positions, not the value).
        const uint64_t canon = std::min(fwd, rc);
        const uint64_t key = Mix64(canon);
        while (tail_ != head_ && ring_[(tail_ - 1) & kRingMask].key > key) {
          --tail_;
        }
        ring_[tail_ & kRingMask] = Entry{i, canon, key};
        ++tail_;
      }
      if (i + 1 - frag_start < static_cast<size_t>(L_)) continue;

      // Full window covering [i - L + 1, i]: its minimizer is the deque
      // front once m-mers ending before the window are expired.
      const size_t window_start = i + 1 - L_;
      while (ring_[head_ & kRingMask].end_pos < window_start + m_ - 1) {
        ++head_;
      }
      const Entry& front = ring_[head_ & kRingMask];
      if (!run_active) {
        run_active = true;
        run_key = front.key;
        run_value = front.canon;
        run_start = window_start;
        run_windows = 0;
      } else if (front.key != run_key || run_windows == max_windows) {
        emit(i - 1);
        run_key = front.key;
        run_value = front.canon;
        run_start = window_start;
        run_windows = 0;
      }
      ++run_windows;
    }
  }

 private:
  struct Entry {
    size_t end_pos = 0;   // read index of the m-mer's last base
    uint64_t canon = 0;   // canonical m-mer code
    uint64_t key = 0;     // Mix64(canon): the minimizer ordering
  };

  // The deque holds at most L - m + 1 <= 32 live entries; 64 slots with a
  // power-of-two mask keep the indices branch-free.
  static constexpr size_t kRingMask = 63;

  int L_;
  int m_;
  uint64_t mmask_;
  Entry ring_[kRingMask + 1];
  size_t head_ = 0, tail_ = 0;
  std::vector<uint8_t> codes_;  // Scan's classify buffer, reused per read
};

/// Appends one encoded super-k-mer record to `out`:
///
///   varint(base_length) packed[ceil(len/4)]
///
/// Bases are 2-bit codes, 4 per byte, base j in byte j/4 at bits 2*(j%4).
/// `bases` must be pure ACGT (the scanner only ever emits ACGT runs).
/// Returns bytes appended.
size_t AppendSuperkmer(std::string_view bases, std::vector<uint8_t>* out);

/// AppendSuperkmer over pre-classified 2-bit codes: identical record bytes,
/// but the packing runs through the dispatched PackCodes kernel instead of
/// a per-base loop. Every code must be 0..3 (the scanner only emits ACGT
/// runs); invalid codes would corrupt the packed bytes, not abort.
size_t AppendSuperkmerCodes(const uint8_t* codes, size_t size,
                            std::vector<uint8_t>* out);

/// Parses and validates one record header at data[*pos], advancing *pos
/// past it (but not past the packed bases). The one place both the decoder
/// and the summarizer agree on what a well-formed record is. Returns false
/// on a truncated varint, a record with no full window, or a base length
/// the remaining bytes cannot hold.
inline bool ParseSuperkmerHeader(const uint8_t* data, size_t size,
                                 size_t* pos, int mer_length,
                                 uint64_t* base_length) {
  if (!GetVarint64(data, size, pos, base_length)) return false;
  // Overflow-safe form of the packed-byte availability check, on untrusted
  // headers.
  return *base_length >= static_cast<uint64_t>(mer_length) &&
         *base_length <= 4 * static_cast<uint64_t>(size - *pos);
}

/// Decodes a buffer of back-to-back records, calling fn(uint64_t) with the
/// canonical code of every replayed L-window. The canonical form is
/// min(window, reverse complement) — numerically identical to
/// Kmer::Canonical — computed with rolling forward/RC codes so the
/// decode hot loop does O(1) work per base with no per-window bit
/// reversal. Returns false on malformed input (truncated varint or packed
/// bases, or a record with no windows).
template <typename Fn>
bool DecodeSuperkmers(const uint8_t* data, size_t size, int mer_length,
                      Fn&& fn) {
  const int L = mer_length;
  const uint64_t mask = L == 32 ? ~0ULL : ((1ULL << (2 * L)) - 1);
  size_t pos = 0;
  while (pos < size) {
    uint64_t base_length = 0;
    if (!ParseSuperkmerHeader(data, size, &pos, L, &base_length)) {
      return false;
    }
    uint64_t fwd = 0, rc = 0;
    int filled = 0;
    for (uint64_t j = 0; j < base_length; ++j) {
      const uint64_t b = (data[pos + (j >> 2)] >> (2 * (j & 3))) & 3;
      fwd = ((fwd << 2) | b) & mask;
      rc = (rc >> 2) | ((b ^ 3) << (2 * (L - 1)));
      if (filled < L) ++filled;
      if (filled == L) fn(std::min(fwd, rc));
    }
    pos += (base_length + 3) / 4;
  }
  return true;
}

/// Record/window/base totals of an encoded chunk (stats + tests).
struct SuperkmerChunkSummary {
  uint64_t records = 0;
  uint64_t windows = 0;
  uint64_t bases = 0;
};

/// Walks record headers without unpacking bases. Returns false on
/// malformed input.
bool SummarizeSuperkmerChunk(const uint8_t* data, size_t size, int mer_length,
                             SuperkmerChunkSummary* out);

/// Decodes a chunk into a vector of canonical codes (test convenience).
bool DecodeSuperkmersToVector(const uint8_t* data, size_t size,
                              int mer_length, std::vector<uint64_t>* codes);

}  // namespace ppa

#endif  // PPA_DNA_SUPERKMER_H_
