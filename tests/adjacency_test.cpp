// Tests for edge polarity algebra and the Fig. 8 adjacency encodings
// (dbg/adjacency.h) — including the paper's Property 1 and the Fig. 8b
// worked example.
#include "dbg/adjacency.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ppa {
namespace {

TEST(AdjItemTest, EncodeDecodeRoundTrip) {
  for (int bit = 0; bit < 32; ++bit) {
    AdjItem item = ItemFromBitmapBit(bit);
    EXPECT_EQ(BitmapBit(item), bit);
    EXPECT_EQ(AdjItem::Decode(item.Encode()), item);
    // Fig. 8b layout: 000XXYZZ — top three bits always clear.
    EXPECT_EQ(item.Encode() >> 5, 0);
  }
}

TEST(AdjItemTest, Fig8bWorkedExample) {
  // Vertex "ACGG", in-neighbor bitmap 00010111: base G (10), in (0),
  // polarity <H:H> (11). Neighbor sequence must be "CGGC": reverse
  // complement "ACGG" -> "CCGT", prepend G -> "GCCG", reverse complement
  // -> "CGGC".
  AdjItem item = AdjItem::Decode(0b00010111);
  EXPECT_EQ(item.base, kBaseG);
  EXPECT_EQ(item.out, 0);
  EXPECT_EQ(item.self, Side::kH);
  EXPECT_EQ(item.other, Side::kH);
  Kmer vertex = Kmer::FromString("ACGG");
  EXPECT_EQ(NeighborKmer(vertex, item).ToString(), "CGGC");
}

TEST(AdjItemTest, Property1FlipPreservesNeighbor) {
  // Property 1: the flipped description of an edge reconstructs the same
  // neighbor from the same vertex.
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    int k = 3 + 2 * static_cast<int>(rng.Below(14));
    uint64_t code = rng.Next() & ((1ULL << (2 * k)) - 1);
    Kmer vertex = Kmer(code, k).Canonical();
    AdjItem item = ItemFromBitmapBit(static_cast<int>(rng.Below(32)));
    AdjItem flipped = item.Flipped();
    EXPECT_EQ(NeighborKmer(vertex, item).Canonical().code(),
              NeighborKmer(vertex, flipped).Canonical().code());
    EXPECT_EQ(flipped.Flipped(), item);  // Involution.
    // The bidirected view is flip-invariant: same ends either way.
    EXPECT_EQ(item.SelfEnd(), flipped.SelfEnd());
    EXPECT_EQ(item.OtherEnd(), flipped.OtherEnd());
  }
}

TEST(MakeEdgeTest, EndpointsReconstructEachOther) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    int k = 3 + 2 * static_cast<int>(rng.Below(14));
    uint64_t code = rng.Next() & ((1ULL << (2 * (k + 1))) - 1);
    Kmer edge_mer = Kmer(code, k + 1).Canonical();
    EdgeEndpoints e = MakeEdge(edge_mer);
    EXPECT_TRUE(e.prefix_vertex.IsCanonical());
    EXPECT_TRUE(e.suffix_vertex.IsCanonical());
    // Each endpoint's adjacency item reconstructs the other endpoint.
    EXPECT_EQ(NeighborKmer(e.prefix_vertex, e.prefix_item).code(),
              e.suffix_vertex.code());
    EXPECT_EQ(NeighborKmer(e.suffix_vertex, e.suffix_item).code(),
              e.prefix_vertex.code());
    // The two items describe one edge: matching ends, opposite directions.
    EXPECT_EQ(e.prefix_item.out, 1);
    EXPECT_EQ(e.suffix_item.out, 0);
    EXPECT_EQ(e.prefix_item.SelfEnd(), e.suffix_item.OtherEnd());
    EXPECT_EQ(e.prefix_item.OtherEnd(), e.suffix_item.SelfEnd());
  }
}

TEST(MakeEdgeTest, PaperFig6Example) {
  // (k+1)-mer "AGT" (k=2): edge "AG" -> "GT"; "GT" is non-canonical and
  // becomes vertex "AC" with an H label on its side.
  EdgeEndpoints e = MakeEdge(Kmer::FromString("AGT"));
  EXPECT_EQ(e.prefix_vertex.ToString(), "AG");
  EXPECT_EQ(e.suffix_vertex.ToString(), "AC");
  EXPECT_EQ(e.prefix_item.self, Side::kL);
  EXPECT_EQ(e.prefix_item.other, Side::kH);
}

TEST(EndsTest, SelfEndMatchesPolaritySemantics) {
  // An out-edge with self side L leaves the 3' end; with self side H it
  // leaves the 5' end (the rc's 3' end). In-edges mirror this.
  AdjItem out_l{0, 1, Side::kL, Side::kL};
  AdjItem out_h{0, 1, Side::kH, Side::kL};
  AdjItem in_l{0, 0, Side::kL, Side::kL};
  AdjItem in_h{0, 0, Side::kH, Side::kL};
  EXPECT_EQ(out_l.SelfEnd(), NodeEnd::k3);
  EXPECT_EQ(out_h.SelfEnd(), NodeEnd::k5);
  EXPECT_EQ(in_l.SelfEnd(), NodeEnd::k5);
  EXPECT_EQ(in_h.SelfEnd(), NodeEnd::k3);
}

}  // namespace
}  // namespace ppa
