// Tests for vertex IDs (dbg/ids.h) and the assembly node (dbg/node.h).
#include <gtest/gtest.h>

#include "dbg/ids.h"
#include "dbg/node.h"

namespace ppa {
namespace {

TEST(IdsTest, KindsAreDisjoint) {
  uint64_t kmer_id = Kmer::FromString("ACGTACGTACG").code();
  uint64_t contig_id = MakeContigId(3, 17);
  EXPECT_TRUE(IsKmerId(kmer_id));
  EXPECT_FALSE(IsContigId(kmer_id));
  EXPECT_TRUE(IsContigId(contig_id));
  EXPECT_FALSE(IsKmerId(contig_id));
  EXPECT_FALSE(IsContigId(kNullId));
  EXPECT_FALSE(IsKmerId(kNullId));
}

TEST(IdsTest, NullIdMatchesFig7b) {
  EXPECT_EQ(kNullId, 1ULL << 63);  // MSB 1, all others 0.
}

TEST(IdsTest, ContigIdFields) {
  uint64_t id = MakeContigId(12345, 67890);
  EXPECT_EQ(ContigIdWorker(id), 12345u);
  EXPECT_EQ(ContigIdOrdinal(id), 67890u);
  EXPECT_NE(MakeContigId(1, 2), MakeContigId(2, 1));
}

TEST(IdsTest, FirstContigOfWorkerZeroIsNotNullId) {
  // kNullId marks "no neighbor", so no contig may carry it.
  const uint64_t first = MakeContigId(0, 0);
  EXPECT_NE(first, kNullId);
  EXPECT_TRUE(IsContigId(first));
  EXPECT_EQ(ContigIdWorker(first), 0u);
  EXPECT_EQ(ContigIdOrdinal(first), 0u);
  const uint64_t last = MakeContigId((1u << 30) - 1, UINT32_MAX - 1);
  EXPECT_TRUE(IsContigId(last));
  EXPECT_EQ(ContigIdWorker(last), (1u << 30) - 1);
  EXPECT_EQ(ContigIdOrdinal(last), UINT32_MAX - 1);
  EXPECT_FALSE(HasEndMark(last));
}

TEST(IdsTest, EndMarkRoundTrip) {
  uint64_t kmer_id = Kmer::FromString("TTTACGTACGTACGTACGTACGTACGTACGT").code();
  uint64_t marked = WithEndMark(kmer_id);
  EXPECT_TRUE(HasEndMark(marked));
  EXPECT_FALSE(HasEndMark(kmer_id));
  EXPECT_EQ(ClearEndMark(marked), kmer_id);
  // k <= 31 guarantees bit 62 is free in k-mer ids.
  EXPECT_NE(marked, kmer_id);
}

AsmNode KmerNode(const char* seq) {
  AsmNode node;
  node.kind = NodeKind::kKmer;
  Kmer kmer = Kmer::FromString(seq);
  node.k = static_cast<uint8_t>(kmer.k());
  node.id = kmer.code();
  return node;
}

TEST(AsmNodeTest, VertexTypesFollowSecIVA) {
  AsmNode node = KmerNode("ACGTA");
  EXPECT_EQ(node.Type(), VertexType::kIsolated);

  node.edges.push_back(BiEdge{1, NodeEnd::k3, NodeEnd::k5, 1});
  EXPECT_EQ(node.Type(), VertexType::kOne);

  node.edges.push_back(BiEdge{2, NodeEnd::k5, NodeEnd::k3, 1});
  EXPECT_EQ(node.Type(), VertexType::kOneOne);
  EXPECT_TRUE(node.IsUnambiguousPathNode());

  node.edges.push_back(BiEdge{3, NodeEnd::k3, NodeEnd::k5, 1});
  EXPECT_EQ(node.Type(), VertexType::kManyMany);
  EXPECT_FALSE(node.IsUnambiguousPathNode());
}

TEST(AsmNodeTest, TwoEdgesSameEndIsAmbiguous) {
  // "Both edges agree on the polarity label" fails: two edges at one end.
  AsmNode node = KmerNode("ACGTA");
  node.edges.push_back(BiEdge{1, NodeEnd::k3, NodeEnd::k5, 1});
  node.edges.push_back(BiEdge{2, NodeEnd::k3, NodeEnd::k5, 1});
  EXPECT_EQ(node.Type(), VertexType::kManyMany);
}

TEST(AsmNodeTest, SelfLoopIsAmbiguous) {
  AsmNode node = KmerNode("AAAAA");
  node.edges.push_back(
      BiEdge{node.id, NodeEnd::k3, NodeEnd::k5, 1});
  node.edges.push_back(
      BiEdge{node.id, NodeEnd::k5, NodeEnd::k3, 1});
  EXPECT_EQ(node.Type(), VertexType::kManyMany);
}

TEST(AsmNodeTest, SeqLength) {
  EXPECT_EQ(KmerNode("ACGTT").SeqLength(), 5u);

  AsmNode contig;
  contig.kind = NodeKind::kContig;
  contig.seq = PackedSequence::FromString("ACGTTGCA");
  EXPECT_EQ(contig.SeqLength(), 8u);
}

TEST(AsmNodeTest, EdgeAtAndRemoveEdge) {
  AsmNode node = KmerNode("ACGTA");
  node.edges.push_back(BiEdge{1, NodeEnd::k3, NodeEnd::k5, 9});
  node.edges.push_back(BiEdge{2, NodeEnd::k5, NodeEnd::k3, 4});
  const BiEdge* e3 = node.EdgeAt(NodeEnd::k3);
  ASSERT_NE(e3, nullptr);
  EXPECT_EQ(e3->to, 1u);
  EXPECT_EQ(node.RemoveEdge(1, NodeEnd::k3, NodeEnd::k5), 1);
  EXPECT_EQ(node.EdgeAt(NodeEnd::k3), nullptr);
  EXPECT_EQ(node.RemoveEdge(1, NodeEnd::k3, NodeEnd::k5), 0);
  EXPECT_EQ(node.RemoveEdge(2, NodeEnd::k5, NodeEnd::k3), 1);
  EXPECT_EQ(node.Type(), VertexType::kIsolated);
}

TEST(AsmNodeTest, EdgeAtReturnsNullWhenNotUnique) {
  AsmNode node = KmerNode("ACGTA");
  node.edges.push_back(BiEdge{1, NodeEnd::k3, NodeEnd::k5, 1});
  node.edges.push_back(BiEdge{2, NodeEnd::k3, NodeEnd::k5, 1});
  EXPECT_EQ(node.EdgeAt(NodeEnd::k3), nullptr);
}

}  // namespace
}  // namespace ppa
