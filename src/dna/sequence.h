// Arbitrary-length 2-bit packed DNA sequence.
//
// This is the contig sequence representation from Fig. 9: "a contig vertex
// keeps its sequence as a variable-length bitmap". Bases are packed 32 per
// 64-bit word; the contig-side polarity convention (always L, i.e. strand 1,
// Sec. IV.A) is enforced by the users of this class, not here.
#ifndef PPA_DNA_SEQUENCE_H_
#define PPA_DNA_SEQUENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dna/kmer.h"
#include "dna/nucleotide.h"

namespace ppa {

/// Growable 2-bit packed DNA sequence.
class PackedSequence {
 public:
  PackedSequence() = default;

  /// Parses from ASCII (A/C/G/T only; aborts otherwise).
  static PackedSequence FromString(std::string_view s);

  /// Builds from a k-mer (its k bases in 5'-to-3' order).
  static PackedSequence FromKmer(const Kmer& kmer);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Base code at position i (0 = 5' end).
  uint8_t BaseAt(size_t i) const {
    return static_cast<uint8_t>((words_[i >> 5] >> (2 * (i & 31))) & 3);
  }

  /// Appends a single base.
  void PushBack(uint8_t base);

  /// Appends all bases of `other` starting at position `from`.
  void Append(const PackedSequence& other, size_t from = 0);

  /// Appends bases of a k-mer starting at position `from`.
  void AppendKmer(const Kmer& kmer, int from = 0);

  /// Reverse complement as a new sequence.
  PackedSequence ReverseComplement() const;

  /// Subsequence [pos, pos + len).
  PackedSequence Subsequence(size_t pos, size_t len) const;

  /// The k bases starting at pos, as a Kmer code (requires k <= 32 and
  /// pos + k <= size()).
  Kmer KmerAt(size_t pos, int k) const;

  /// Count of G and C bases (for the QUAST GC% metric).
  size_t GcCount() const;

  std::string ToString() const;

  friend bool operator==(const PackedSequence& a, const PackedSequence& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }
  friend bool operator!=(const PackedSequence& a, const PackedSequence& b) {
    return !(a == b);
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace ppa

#endif  // PPA_DNA_SEQUENCE_H_
