// Edge polarity algebra and the compact adjacency formats (Figs. 6 and 8).
//
// A DBG vertex is a *canonical* k-mer; an edge therefore carries a polarity
// (X : Y) telling, for each endpoint, whether the (k+1)-mer that created the
// edge contains the endpoint's canonical sequence (label L) or its reverse
// complement (label H). Property 1 of the paper: edge (u,v) with (X : Y) is
// equivalent to edge (v,u) with (Y̅ : X̅).
//
// Both encodings of Fig. 8 are provided, bit-exact:
//   * AdjItem: the uncompressed 8-bit item `000XXYZZ` (+ NULL = 10000000),
//     where XX = prepended/appended nucleotide, Y = in/out, ZZ = polarity.
//   * BitmapBit / ItemFromBitmapBit: an item's position in the 32-bit
//     bitmap of Fig. 8a (4 polarities x {in,out} x ACGT). DBG phase (ii)
//     ships one AdjEntry (bit, coverage) per edge endpoint and builds each
//     vertex's edges from its entries in bit order.
//
// The rest of the pipeline works on the equivalent *bidirected* view: an
// edge endpoint attaches to a node end (5' or 3' of the node's stored
// orientation). The translation is:
//   out-edge at u: attaches u's 3' end if X == L, u's 5' end if X == H;
//                  enters v's 5' end if Y == L, v's 3' end if Y == H.
// (An in-edge is the Property-1 flip of an out-edge.)
#ifndef PPA_DBG_ADJACENCY_H_
#define PPA_DBG_ADJACENCY_H_

#include <cstdint>

#include "dna/kmer.h"

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

/// One set bit of a vertex's Fig. 8a bitmap with the coverage of its edge:
/// the 8-byte record DBG phase (ii) shuffles per edge endpoint.
struct AdjEntry {
  uint32_t bit = 0;
  uint32_t coverage = 0;
};

}  // namespace ppa

#endif  // PPA_DBG_ADJACENCY_H_
