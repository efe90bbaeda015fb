// Edge polarity algebra and the compact adjacency formats (Figs. 6 and 8).
//
// A DBG vertex is a *canonical* k-mer; an edge therefore carries a polarity
// (X : Y) telling, for each endpoint, whether the (k+1)-mer that created the
// edge contains the endpoint's canonical sequence (label L) or its reverse
// complement (label H). Property 1 of the paper: edge (u,v) with (X : Y) is
// equivalent to edge (v,u) with (Y̅ : X̅).
//
// Two representations are provided, both bit-exact to Fig. 8:
//   * AdjItem: the uncompressed 8-bit item `000XXYZZ` (+ NULL = 10000000),
//     where XX = prepended/appended nucleotide, Y = in/out, ZZ = polarity.
//   * PackedAdjacency: the 32-bit bitmap (4 polarities x {in,out} x ACGT)
//     with a varint-coded coverage per set bit — the memory-efficient
//     format used right after DBG construction, when overlapping k-mers
//     make the graph largest.
//
// The rest of the pipeline works on the equivalent *bidirected* view: an
// edge endpoint attaches to a node end (5' or 3' of the node's stored
// orientation). The translation is:
//   out-edge at u: attaches u's 3' end if X == L, u's 5' end if X == H;
//                  enters v's 5' end if Y == L, v's 3' end if Y == H.
// (An in-edge is the Property-1 flip of an out-edge.)
#ifndef PPA_DBG_ADJACENCY_H_
#define PPA_DBG_ADJACENCY_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dna/kmer.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ppa {

/// Polarity label of one side of an edge.
enum class Side : uint8_t {
  kL = 0,  // endpoint participates with its canonical sequence
  kH = 1,  // endpoint participates with its reverse complement
};

inline Side ComplementSide(Side s) {
  return s == Side::kL ? Side::kH : Side::kL;
}

/// An end of a node's stored (canonical / as-written) sequence.
enum class NodeEnd : uint8_t {
  k5 = 0,  // 5' end (sequence start)
  k3 = 1,  // 3' end (sequence end)
};

inline NodeEnd OppositeEnd(NodeEnd e) {
  return e == NodeEnd::k5 ? NodeEnd::k3 : NodeEnd::k5;
}

/// The uncompressed 8-bit adjacency item of Fig. 8b.
struct AdjItem {
  uint8_t base : 2;   // XX: nucleotide appended (out) / prepended (in)
  uint8_t out : 1;    // Y: 1 = out-neighbor, 0 = in-neighbor
  Side self;          // Z (left): polarity label on this vertex's side
  Side other;         // Z (right): polarity label on the neighbor's side

  /// Encodes as the paper's 000XXYZZ byte. Y follows the paper's worked
  /// example (Fig. 8b: byte 00010111 is an *in*-neighbor): Y = 1 means in.
  uint8_t Encode() const {
    return static_cast<uint8_t>((base << 3) | ((out ^ 1u) << 2) |
                                (static_cast<uint8_t>(self) << 1) |
                                static_cast<uint8_t>(other));
  }

  static AdjItem Decode(uint8_t byte) {
    AdjItem item{};
    item.base = (byte >> 3) & 3;
    item.out = ((byte >> 2) & 1) ^ 1u;
    item.self = static_cast<Side>((byte >> 1) & 1);
    item.other = static_cast<Side>(byte & 1);
    return item;
  }

  /// The NULL-neighbor byte (10000000).
  static constexpr uint8_t kNullByte = 0x80;

  /// Property 1: the same physical edge described with the flipped
  /// direction. Complements the direction, both polarity labels and the
  /// nucleotide.
  AdjItem Flipped() const {
    AdjItem f{};
    f.base = base ^ 3u;
    f.out = out ^ 1u;
    f.self = ComplementSide(self);
    f.other = ComplementSide(other);
    return f;
  }

  /// Which end of this vertex's canonical sequence the edge attaches to.
  NodeEnd SelfEnd() const {
    if (out) return self == Side::kL ? NodeEnd::k3 : NodeEnd::k5;
    return self == Side::kL ? NodeEnd::k5 : NodeEnd::k3;
  }

  /// Which end of the neighbor's canonical sequence the edge attaches to.
  NodeEnd OtherEnd() const {
    if (out) return other == Side::kL ? NodeEnd::k5 : NodeEnd::k3;
    return other == Side::kL ? NodeEnd::k3 : NodeEnd::k5;
  }

  friend bool operator==(const AdjItem& a, const AdjItem& b) {
    return a.Encode() == b.Encode();
  }
};

/// Reconstructs the (canonical) neighbor k-mer from a vertex and one of its
/// adjacency items — the procedure spelled out under Fig. 8: optionally
/// reverse-complement the vertex (self side H), append/prepend the
/// nucleotide, optionally reverse-complement the result (other side H).
inline Kmer NeighborKmer(const Kmer& vertex, const AdjItem& item) {
  Kmer w = (item.self == Side::kH) ? vertex.ReverseComplement() : vertex;
  w = item.out ? w.Append(item.base) : w.Prepend(item.base);
  if (item.other == Side::kH) w = w.ReverseComplement();
  return w;
}

/// Builds the two adjacency items induced by one (k+1)-mer edge: the item
/// stored at the canonical prefix vertex and the one stored at the canonical
/// suffix vertex.
struct EdgeEndpoints {
  Kmer prefix_vertex;   // canonical k-mer vertex of the prefix
  Kmer suffix_vertex;   // canonical k-mer vertex of the suffix
  AdjItem prefix_item;  // item in the prefix vertex's adjacency list
  AdjItem suffix_item;  // item in the suffix vertex's adjacency list
};

inline EdgeEndpoints MakeEdge(const Kmer& edge_mer) {
  Kmer prefix = edge_mer.Prefix();
  Kmer suffix = edge_mer.Suffix();
  Side prefix_side = prefix.IsCanonical() ? Side::kL : Side::kH;
  Side suffix_side = suffix.IsCanonical() ? Side::kL : Side::kH;
  EdgeEndpoints e;
  e.prefix_vertex = prefix.Canonical();
  e.suffix_vertex = suffix.Canonical();
  e.prefix_item = AdjItem{edge_mer.LastBase(), 1, prefix_side, suffix_side};
  e.suffix_item = AdjItem{edge_mer.FirstBase(), 0, suffix_side, prefix_side};
  return e;
}

/// Bit position of an item in the 32-bit bitmap of Fig. 8a: the bitmap is
/// grouped by polarity (LL, LH, HL, HH), within a group by direction
/// (in, out), within that by nucleotide.
inline int BitmapBit(const AdjItem& item) {
  int pol = (static_cast<int>(item.self) << 1) | static_cast<int>(item.other);
  return pol * 8 + item.out * 4 + item.base;
}

inline AdjItem ItemFromBitmapBit(int bit) {
  AdjItem item{};
  item.base = bit & 3;
  item.out = (bit >> 2) & 1;
  int pol = bit >> 3;
  item.self = static_cast<Side>((pol >> 1) & 1);
  item.other = static_cast<Side>(pol & 1);
  return item;
}

/// The compressed k-mer adjacency list of Fig. 8a: a 32-bit existence
/// bitmap plus one varint-coded coverage count per set bit, stored in
/// ascending bit order.
class PackedAdjacency {
 public:
  PackedAdjacency() = default;

  /// Builds from (bit, coverage) pairs; duplicate bits are summed.
  static PackedAdjacency Build(
      std::vector<std::pair<int, uint32_t>> entries) {
    std::sort(entries.begin(), entries.end());
    PackedAdjacency adj;
    std::vector<std::pair<int, uint64_t>> merged;
    for (const auto& [bit, cov] : entries) {
      if (!merged.empty() && merged.back().first == bit) {
        merged.back().second += cov;
      } else {
        merged.emplace_back(bit, cov);
      }
    }
    for (const auto& [bit, cov] : merged) {
      adj.bitmap_ |= (1u << bit);
      PutVarint64(&adj.coverage_, cov);
    }
    return adj;
  }

  uint32_t bitmap() const { return bitmap_; }

  int degree() const { return __builtin_popcount(bitmap_); }

  /// Invokes fn(AdjItem, coverage) for each neighbor, in bit order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    size_t pos = 0;
    for (int bit = 0; bit < 32; ++bit) {
      if ((bitmap_ & (1u << bit)) == 0) continue;
      uint64_t cov = 0;
      bool ok = GetVarint64(coverage_.data(), coverage_.size(), &pos, &cov);
      PPA_CHECK(ok);
      fn(ItemFromBitmapBit(bit), static_cast<uint32_t>(cov));
    }
  }

  /// Coverage of the neighbor at `bit`; 0 if the bit is unset.
  uint32_t CoverageOf(int bit) const {
    uint32_t cov = 0;
    ForEach([&](const AdjItem& item, uint32_t c) {
      if (BitmapBit(item) == bit) cov = c;
    });
    return cov;
  }

  /// Bytes used by this structure (for the memory ablation): the bitmap
  /// plus the varint payload.
  size_t MemoryBytes() const { return sizeof(bitmap_) + coverage_.size(); }

 private:
  uint32_t bitmap_ = 0;
  std::vector<uint8_t> coverage_;
};

}  // namespace ppa

#endif  // PPA_DBG_ADJACENCY_H_
