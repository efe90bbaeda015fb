// Targeted tests for operations 3, 4 and 5 — contig merging semantics,
// bubble filtering and tip removing on constructed scenarios.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/propagation.h"
#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "dna/read.h"

namespace ppa {
namespace {

AssemblerOptions TestOptions(int k = 5) {
  AssemblerOptions options;
  options.k = k;
  options.coverage_threshold = 1;
  options.tip_length_threshold = 12;
  options.num_workers = 4;
  options.num_threads = 2;
  return options;
}

AssemblyGraph GraphFrom(const std::vector<std::string>& read_strs,
                        const AssemblerOptions& options,
                        uint32_t copies = 1) {
  std::vector<Read> reads;
  for (uint32_t c = 0; c < copies; ++c) {
    for (size_t i = 0; i < read_strs.size(); ++i) {
      reads.push_back(Read{"r", read_strs[i], ""});
    }
  }
  DbgResult dbg = BuildDbg(reads, options);
  return std::move(dbg.graph);
}

void LabelAndMerge(AssemblyGraph& graph, const AssemblerOptions& options,
                   std::vector<uint32_t>* ordinals) {
  LabelingResult labels =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, labels, options, ordinals);
}

TEST(MergingTest, LinearReadBecomesItsOwnContig) {
  AssemblerOptions options = TestOptions();
  const std::string seq = "AGGCTGCAACTCATCGACTCTATGT";
  AssemblyGraph graph = GraphFrom({seq}, options);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);

  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  std::string got = contigs[0].seq.ToString();
  std::string rc =
      PackedSequence::FromString(seq).ReverseComplement().ToString();
  EXPECT_TRUE(got == seq || got == rc) << got;
  EXPECT_FALSE(contigs[0].circular);
}

TEST(MergingTest, ReverseComplementReadsMergeAcrossStrands) {
  // Reads from the two strands must stitch (Fig. 6's point).
  AssemblerOptions options = TestOptions();
  const std::string fwd = "GCTAAAGACAATT";
  std::string rc =
      PackedSequence::FromString("GACAATTACATAACA").ReverseComplement()
          .ToString();
  AssemblyGraph graph = GraphFrom({fwd, rc}, options);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);

  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  const std::string expected = "GCTAAAGACAATTACATAACA";
  std::string got = contigs[0].seq.ToString();
  std::string expected_rc =
      PackedSequence::FromString(expected).ReverseComplement().ToString();
  EXPECT_TRUE(got == expected || got == expected_rc) << got;
}

TEST(MergingTest, ContigCoverageIsMinimumEdgeCoverage) {
  AssemblerOptions options = TestOptions();
  // Read copied 3 times plus one extra partial read raising some (k+1)-mer
  // counts: the contig's coverage must be the minimum (3).
  AssemblyGraph graph =
      GraphFrom({"ACGTTGCATGGATCCTA", "ACGTTGCATG"}, options, 3);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].coverage, 3u);
}

TEST(MergingTest, CircularPathYieldsCircularContig) {
  AssemblerOptions options = TestOptions(3);
  // "ACGGTAACGGTAAC": its 3-mer DBG contains the 6-cycle of "ACGGTA".
  AssemblyGraph graph = GraphFrom({"ACGGTAACGGTAAC"}, options);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  bool found_circular = false;
  for (const ContigRecord& c : CollectContigs(graph)) {
    found_circular |= c.circular;
  }
  EXPECT_TRUE(found_circular);
}

TEST(MergingTest, ShortDanglingContigDroppedAtMergeTime) {
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 10;
  // Main path plus a short branch (tip) diverging mid-way: the branch path
  // ends dead and is shorter than the threshold.
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGATCCTAGCATCAAT",  // trunk
       "TGCATGGTT"},                 // 9 bp dangling branch off "TGCATGG"
      options, 2);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  // No surviving contig may end at the tip's dead end with tiny length.
  for (const ContigRecord& c : CollectContigs(graph)) {
    bool dangling = false;
    AsmNode* node = graph.Find(c.id);
    ASSERT_NE(node, nullptr);
    dangling = node->EdgeAt(NodeEnd::k5) == nullptr ||
               node->EdgeAt(NodeEnd::k3) == nullptr;
    if (dangling) {
      EXPECT_GT(c.seq.size(), options.tip_length_threshold);
    }
  }
}

/// A vertex of a hand-built path: `forward` when the path reads it in its
/// stored orientation, i.e. enters it at its 5' end.
struct PathPiece {
  AsmNode node;
  bool forward = true;
};

/// The k-mer vertex of `s`, stored as its canonical k-mer.
PathPiece KmerPiece(const std::string& s) {
  const Kmer kmer = Kmer::FromString(s);
  PathPiece piece;
  piece.node.id = kmer.Canonical().code();
  piece.node.kind = NodeKind::kKmer;
  piece.node.k = static_cast<uint8_t>(s.size());
  piece.forward = kmer.IsCanonical();
  return piece;
}

/// A contig vertex holding `s`, or its reverse complement unless `forward`.
PathPiece ContigPiece(uint64_t id, const std::string& s, bool forward,
                      uint32_t coverage) {
  PathPiece piece;
  piece.node.id = id;
  piece.node.kind = NodeKind::kContig;
  piece.node.k = 5;
  const PackedSequence seq = PackedSequence::FromString(s);
  piece.node.seq = forward ? seq : seq.ReverseComplement();
  piece.node.coverage = coverage;
  piece.forward = forward;
  return piece;
}

/// Joins the path-right end of `left` to the path-left end of `right`.
void Join(PathPiece& left, PathPiece& right, uint32_t coverage) {
  const NodeEnd l = left.forward ? NodeEnd::k3 : NodeEnd::k5;
  const NodeEnd r = right.forward ? NodeEnd::k5 : NodeEnd::k3;
  left.node.edges.push_back(BiEdge{right.node.id, l, r, coverage});
  right.node.edges.push_back(BiEdge{left.node.id, r, l, coverage});
}

/// The edges of `node` that lead to `to`.
std::vector<BiEdge> EdgesTo(const AsmNode& node, uint64_t to) {
  std::vector<BiEdge> out;
  for (const BiEdge& e : node.edges) {
    if (e.to == to) out.push_back(e);
  }
  return out;
}

TEST(MergingTest, StitchesThroughContigVerticesOnBothStrands) {
  // Read left to right at k = 5, TATACCACTGGGTAGGATACGGC holds the
  // ambiguous k-mer o1, the path k1 c1 k2 c2 k3 and the ambiguous k-mer o2.
  // c1 is stored reverse-complemented, so the walk from k1 (the path end
  // with the smaller id) enters it at its 3' end; c2 is stored forward and
  // entered at its 5' end. o1 and k3 are stored reverse-complemented too.
  const std::string g = "TATACCACTGGGTAGGATACGGC";
  PathPiece o1 = KmerPiece(g.substr(0, 5));
  PathPiece k1 = KmerPiece(g.substr(1, 5));
  PathPiece c1 = ContigPiece(MakeContigId(1, 0), g.substr(2, 11), false, 4);
  PathPiece k2 = KmerPiece(g.substr(9, 5));
  PathPiece c2 = ContigPiece(MakeContigId(2, 0), g.substr(10, 11), true, 10);
  PathPiece k3 = KmerPiece(g.substr(17, 5));
  PathPiece o2 = KmerPiece(g.substr(18, 5));
  ASSERT_TRUE(k1.forward && !k3.forward && !o1.forward);
  ASSERT_LT(k1.node.id, k3.node.id);
  Join(o1, k1, 9);
  Join(k1, c1, 7);
  Join(c1, k2, 6);
  Join(k2, c2, 8);
  Join(c2, k3, 5);
  Join(k3, o2, 11);
  k1.node.coverage = 7;
  k2.node.coverage = 6;
  k3.node.coverage = 5;
  // A self-loop makes each outer k-mer ambiguous.
  for (PathPiece* outer : {&o1, &o2}) {
    outer->node.edges.push_back(
        BiEdge{outer->node.id, NodeEnd::k5, NodeEnd::k5, 3});
  }

  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 4;
  AssemblyGraph graph(options.num_workers);
  for (PathPiece* piece : {&o1, &k1, &c1, &k2, &c2, &k3, &o2}) {
    graph.Add(piece->node);
  }
  std::vector<uint32_t> ordinals(options.num_workers, 10);
  LabelAndMerge(graph, options, &ordinals);

  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].seq.ToString(), "ATACCACTGGGTAGGATACGG");
  EXPECT_EQ(contigs[0].coverage, 4u);  // c1's own coverage is the minimum.
  EXPECT_FALSE(contigs[0].circular);
  const uint64_t id = contigs[0].id;
  const AsmNode* contig = graph.Find(id);
  ASSERT_NE(contig, nullptr);
  // 5' side: o1's path-right end (its 5' end, o1 being reversed); 3' side:
  // o2's path-left end (its 5' end).
  const BiEdge to_o1{o1.node.id, NodeEnd::k5, NodeEnd::k5, 9};
  const BiEdge to_o2{o2.node.id, NodeEnd::k3, NodeEnd::k5, 11};
  EXPECT_EQ(EdgesTo(*contig, o1.node.id), std::vector<BiEdge>{to_o1});
  EXPECT_EQ(EdgesTo(*contig, o2.node.id), std::vector<BiEdge>{to_o2});
  EXPECT_EQ(contig->edges.size(), 2u);
  const AsmNode* outer1 = graph.Find(o1.node.id);
  const AsmNode* outer2 = graph.Find(o2.node.id);
  ASSERT_NE(outer1, nullptr);
  ASSERT_NE(outer2, nullptr);
  const BiEdge from_o1{id, NodeEnd::k5, NodeEnd::k5, 9};
  const BiEdge from_o2{id, NodeEnd::k5, NodeEnd::k3, 11};
  EXPECT_EQ(EdgesTo(*outer1, id), std::vector<BiEdge>{from_o1});
  EXPECT_EQ(EdgesTo(*outer2, id), std::vector<BiEdge>{from_o2});
  EXPECT_TRUE(EdgesTo(*outer1, k1.node.id).empty());
  EXPECT_TRUE(EdgesTo(*outer2, k3.node.id).empty());
}

// MergeContigs and FilterBubbles walk the graph's partitions by
// options.num_workers, so both must refuse a graph built with another count.
constexpr char kFortyBaseRead[] = "ACGTTGCATGGATCCTAGCATCAATGGCTAGGTTCACGAT";
constexpr std::pair<uint32_t, uint32_t> kMismatchedWorkers[] = {{16, 4},
                                                                {4, 16}};

TEST(MergingDeathTest, RejectsGraphWithOtherWorkerCount) {
  for (const auto& [graph_workers, option_workers] : kMismatchedWorkers) {
    AssemblerOptions options = TestOptions();
    options.num_workers = graph_workers;
    AssemblyGraph graph = GraphFrom({kFortyBaseRead}, options);
    const LabelingResult labels =
        LabelContigs(graph, options, LabelingMethod::kListRanking);
    options.num_workers = option_workers;
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    EXPECT_DEATH(MergeContigs(graph, labels, options, &ordinals),
                 "MergeContigs: the graph has " +
                     std::to_string(graph_workers) +
                     " workers but options.num_workers is " +
                     std::to_string(option_workers));
  }
}

TEST(BubbleDeathTest, RejectsGraphWithOtherWorkerCount) {
  for (const auto& [graph_workers, option_workers] : kMismatchedWorkers) {
    AssemblerOptions options = TestOptions();
    options.num_workers = graph_workers;
    AssemblyGraph graph = GraphFrom({kFortyBaseRead}, options);
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    LabelAndMerge(graph, options, &ordinals);
    options.num_workers = option_workers;
    EXPECT_DEATH(FilterBubbles(graph, options),
                 "FilterBubbles: the graph has " +
                     std::to_string(graph_workers) +
                     " workers but options.num_workers is " +
                     std::to_string(option_workers));
  }
}

/// Options and merged graph of a bubble: two parallel paths between common
/// flanks, one base apart; the high-coverage path appears 5x, the
/// erroneous one (G -> T in "GCACTAAAC") once.
AssemblerOptions BubbleOptions() {
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 4;  // Keep tips out of the way.
  return options;
}

AssemblyGraph MergedBubbleGraph(const AssemblerOptions& options,
                                std::vector<uint32_t>* ordinals) {
  const std::string flank_a = "TACACGTCA";
  const std::string mid_good = "GCACGAAAC";
  const std::string mid_bad = "GCACTAAAC";
  const std::string flank_b = "TTGTTGGCC";
  std::vector<Read> reads;
  for (int i = 0; i < 5; ++i) {
    reads.push_back(Read{"good", flank_a + mid_good + flank_b, ""});
  }
  reads.push_back(Read{"bad", flank_a + mid_bad + flank_b, ""});
  AssemblyGraph graph = std::move(BuildDbg(reads, options).graph);
  LabelAndMerge(graph, options, ordinals);
  return graph;
}

TEST(BubbleTest, LowCoverageBranchPruned) {
  const AssemblerOptions options = BubbleOptions();
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  AssemblyGraph graph = MergedBubbleGraph(options, &ordinals);

  size_t contigs_before = CollectContigs(graph).size();
  BubbleResult bubble = FilterBubbles(graph, options);
  EXPECT_GE(bubble.candidate_groups, 1u);
  EXPECT_GE(bubble.contigs_pruned, 1u);
  EXPECT_LT(CollectContigs(graph).size(), contigs_before);

  // The surviving bubble branch is the high-coverage one: no contig may
  // contain the erroneous middle.
  LabelingResult relabel =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, relabel, options, &ordinals);
  for (const ContigRecord& c : CollectContigs(graph)) {
    std::string s = c.seq.ToString();
    std::string rc = c.seq.ReverseComplement().ToString();
    EXPECT_EQ(s.find("GCACTAAAC"), std::string::npos);
    EXPECT_EQ(rc.find("GCACTAAAC"), std::string::npos);
  }
}

/// A copy of `graph` in which the contig vertices named in `flipped` are
/// stored on the other strand: sequence reverse-complemented, the ends of
/// their own edges swapped, and their neighbors' edges into them entering
/// at the other end. Slots are kept.
AssemblyGraph WithContigsFlipped(const AssemblyGraph& graph,
                                 const std::set<uint64_t>& flipped) {
  AssemblyGraph out(graph.num_workers());
  graph.ForEach([&](const AsmNode& node) {
    AsmNode copy = node;
    const bool flip = flipped.count(node.id) != 0;
    if (flip) copy.seq = node.seq.ReverseComplement();
    for (BiEdge& e : copy.edges) {
      if (flip) e.my_end = OppositeEnd(e.my_end);
      if (flipped.count(e.to) != 0) e.to_end = OppositeEnd(e.to_end);
    }
    out.Add(std::move(copy));
  });
  return out;
}

/// A hand-built loop bubble: one ambiguous k-mer X and two 14 bp loop
/// contigs, one mismatch apart (coverage 10 and 2), each leaving X at its
/// 3' end. A contig re-enters X at its 5' end, or with `same_end` at its
/// 3' end again.
AssemblyGraph LoopBubbleGraph(const AssemblerOptions& options, bool same_end) {
  const NodeEnd back_end = same_end ? NodeEnd::k3 : NodeEnd::k5;
  AsmNode x;
  x.id = 77;  // A k-mer id.
  x.k = static_cast<uint8_t>(options.k);
  AssemblyGraph graph(options.num_workers);
  const std::pair<const char*, uint32_t> contigs[] = {
      {"AACGTTGCATGGAT", 10}, {"AACGTTGAATGGAT", 2}};
  for (uint32_t i = 0; i < 2; ++i) {
    AsmNode c;
    c.id = MakeContigId(i, 0);
    c.kind = NodeKind::kContig;
    c.k = x.k;
    c.seq = PackedSequence::FromString(contigs[i].first);
    c.coverage = contigs[i].second;
    c.edges = {BiEdge{x.id, NodeEnd::k5, NodeEnd::k3, c.coverage},
               BiEdge{x.id, NodeEnd::k3, back_end, c.coverage}};
    x.edges.push_back(BiEdge{c.id, NodeEnd::k3, NodeEnd::k5, c.coverage});
    x.edges.push_back(BiEdge{c.id, back_end, NodeEnd::k3, c.coverage});
    graph.Add(std::move(c));
  }
  graph.Add(std::move(x));
  return graph;
}

// Which strand a contig is stored on must not change what bubble filtering
// prunes. Flipping every contig turns each candidate's orientation around;
// flipping one contig alone makes a group compare candidates read in
// opposite orientations. Besides the bubble between two flanks, two loop
// bubbles on one vertex: a loop's two ends differ, or are the same end.
TEST(BubbleTest, PruningIsStrandInvariant) {
  const AssemblerOptions options = BubbleOptions();
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  const std::pair<const char*, AssemblyGraph> graphs[] = {
      {"flanked", MergedBubbleGraph(options, &ordinals)},
      {"loop, ends differ", LoopBubbleGraph(options, false)},
      {"loop, ends equal", LoopBubbleGraph(options, true)}};

  auto filter = [&options](AssemblyGraph g) {
    const BubbleResult result = FilterBubbles(g, options);
    std::set<uint64_t> survivors;
    for (const ContigRecord& c : CollectContigs(g)) survivors.insert(c.id);
    return std::make_tuple(result.candidate_groups, result.contigs_pruned,
                           survivors);
  };
  for (const auto& [name, graph] : graphs) {
    SCOPED_TRACE(name);
    std::set<uint64_t> contig_ids;
    for (const ContigRecord& c : CollectContigs(graph)) {
      contig_ids.insert(c.id);
    }
    const auto want = filter(WithContigsFlipped(graph, {}));
    ASSERT_GE(std::get<1>(want), 1u);

    std::vector<std::set<uint64_t>> flips = {contig_ids};
    for (uint64_t id : contig_ids) flips.push_back({id});
    for (const std::set<uint64_t>& flipped : flips) {
      EXPECT_EQ(filter(WithContigsFlipped(graph, flipped)), want)
          << flipped.size() << " contigs flipped, first " << *flipped.begin();
    }
  }
}

TEST(BubbleTest, DistantParallelPathsNotPruned) {
  AssemblerOptions options = TestOptions();
  options.bubble_edit_distance = 3;
  // Parallel paths that differ in many positions: not a bubble.
  const std::string flank_a = "ACGTTGCAT";
  const std::string mid1 = "GGATCCTAG";
  const std::string mid2 = "TTCAAGGCA";
  const std::string flank_b = "CATCAATGG";
  std::vector<Read> reads;
  for (int i = 0; i < 3; ++i) {
    reads.push_back(Read{"p1", flank_a + mid1 + flank_b, ""});
    reads.push_back(Read{"p2", flank_a + mid2 + flank_b, ""});
  }
  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph graph = std::move(dbg.graph);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  BubbleResult bubble = FilterBubbles(graph, options);
  EXPECT_EQ(bubble.contigs_pruned, 0u);
}

TEST(TipTest, ShortTipRemovedLongBranchKept) {
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 12;
  // Trunk with a short dangling branch.
  std::vector<Read> reads;
  for (int i = 0; i < 3; ++i) {
    reads.push_back(
        Read{"trunk", "TCGTGCCTTTCGGCGTTCTTCACTAAGTAGAGAGTG", ""});
  }
  reads.push_back(Read{"tip", "GTTCTTCACC", ""});  // Dead-ends after branch.

  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph graph = std::move(dbg.graph);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);

  TipResult tips = RemoveTips(graph, options);
  EXPECT_GT(tips.requests_sent, 0u);

  // After re-merging, the trunk should reassemble into one contig
  // containing the junction (which the tip had made ambiguous).
  LabelingResult relabel =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, relabel, options, &ordinals);
  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  const std::string trunk = "TCGTGCCTTTCGGCGTTCTTCACTAAGTAGAGAGTG";
  std::string got = contigs[0].seq.ToString();
  std::string rc = contigs[0].seq.ReverseComplement().ToString();
  EXPECT_TRUE(got == trunk || rc == trunk) << got;
}

TEST(TipTest, LongDanglingPathIsKept) {
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 6;
  // Whole graph is one long dangling path (both ends dead): isolated, but
  // longer than the threshold, so it must survive.
  std::vector<Read> reads = {
      Read{"r", "AGGCTGCAACTCATCGACTCTATGT", ""}};
  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph graph = std::move(dbg.graph);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  TipResult tips = RemoveTips(graph, options);
  EXPECT_EQ(tips.vertices_removed, 0u);
  EXPECT_EQ(CollectContigs(graph).size(), 1u);
}

TEST(TipTest, IsolatedShortContigRemoved) {
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 100;  // Everything is short.
  std::vector<Read> reads = {Read{"r", "ACGTTGCATGGATCC", ""}};
  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph graph = std::move(dbg.graph);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);
  ASSERT_EQ(CollectContigs(graph).size(), 0u);  // Dropped at merge already.
}

TEST(TipTest, CascadingTipsTriggerMultiplePhases) {
  // A two-level tip: the trunk sprouts a stem that forks into two short
  // dead-ending branches. The branches are dropped at merge time; the fork
  // vertex then becomes <1>, making the stem (an inner contig with two
  // formerly-ambiguous ends, which merge-time dropping could NOT touch) a
  // dangling path only operation 5 can remove.
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 14;
  const std::string trunk = "GCAAGGTGCAAAACGCCAGTGGCTAGGGAGAGATCG";
  std::vector<Read> reads;
  for (int i = 0; i < 4; ++i) reads.push_back(Read{"trunk", trunk, ""});
  reads.push_back(Read{"stem", "ACGCCAGTTAC", ""});
  reads.push_back(Read{"branch1", "GTTACTA", ""});
  reads.push_back(Read{"branch2", "GTTACCC", ""});
  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph graph = std::move(dbg.graph);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);

  TipResult tips = RemoveTips(graph, options);
  EXPECT_GT(tips.vertices_removed, 0u);
  EXPECT_GT(tips.edges_cut, 0u);

  // After the cascade, relabeling + merging reassembles the full trunk.
  LabelingResult relabel =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, relabel, options, &ordinals);
  std::vector<ContigRecord> contigs = CollectContigs(graph);
  ASSERT_EQ(contigs.size(), 1u);
  std::string got = contigs[0].seq.ToString();
  std::string rc = contigs[0].seq.ReverseComplement().ToString();
  EXPECT_TRUE(got == trunk || rc == trunk) << got;
}

// ---- Jobs over a graph that still holds removed vertices. -----------------
// Every operation compacts the graph at its end, so no pipeline run starts a
// job on a graph with removed vertices; the jobs must still treat such a
// graph as its compacted copy.

/// A copy of `graph` in which a removed vertex precedes each vertex of every
/// partition, as a job would meet a graph whose last operation marked
/// vertices but had not yet compacted. A removed copy keeps its original's
/// edges, but no vertex has an edge into it.
AssemblyGraph WithRemovedVertices(const AssemblyGraph& graph) {
  const uint32_t W = graph.num_workers();
  AssemblyGraph out(W);
  uint32_t ordinal = 0;
  for (uint32_t p = 0; p < W; ++p) {
    for (const AsmNode& node : graph.partition(p).vertices) {
      AsmNode removed = node;
      do {
        removed.id = MakeContigId(1000, ordinal++);
      } while (PartitionOf(removed.id, W) != p);
      removed.removed = true;
      out.Add(std::move(removed));
      out.Add(node);
    }
  }
  return out;
}

/// The labels of `result` keyed by vertex id.
std::map<uint64_t, uint64_t> LabelsById(const AssemblyGraph& graph,
                                        const LabelingResult& result) {
  std::map<uint64_t, uint64_t> by_id;
  for (const std::vector<LabelEntry>& entries : result.labels) {
    for (const LabelEntry& e : entries) {
      EXPECT_FALSE(graph.partition(e.partition).vertices[e.slot].removed);
      by_id[graph.partition(e.partition).vertices[e.slot].id] = e.label;
    }
  }
  return by_id;
}

void ExpectSameLabels(const AssemblyGraph& marked,
                      const LabelingResult& on_marked,
                      const AssemblyGraph& compacted,
                      const LabelingResult& on_compacted) {
  EXPECT_EQ(LabelsById(marked, on_marked),
            LabelsById(compacted, on_compacted));
  EXPECT_EQ(on_marked.num_unambiguous, on_compacted.num_unambiguous);
  EXPECT_EQ(on_marked.num_ambiguous, on_compacted.num_ambiguous);
  EXPECT_EQ(on_marked.num_cycle_vertices, on_compacted.num_cycle_vertices);
}

TEST(UncompactedGraphTest, LabelingMatchesCompactedCopy) {
  AssemblerOptions options = TestOptions();
  // Two forks, a bubble and a circle of 5-mers (the last read wraps
  // around), so both LR and its S-V fallback have work.
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGATCCTAGGG", "ACGTTGCATACCATTTGACG",
       "TTGACGGGATCCTAGGGCAT", "GATTCAGCCTACGATTCA"},
      options);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const AssemblyGraph marked = WithRemovedVertices(graph);
    AssemblyGraph compacted = marked;
    compacted.Compact();
    ASSERT_GT(marked.size(), compacted.size());

    for (LabelingMethod method :
         {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
      SCOPED_TRACE(LabelingMethodName(method));
      const LabelingResult on_marked = LabelContigs(marked, options, method);
      ExpectSameLabels(marked, on_marked, compacted,
                       LabelContigs(compacted, options, method));
      if (round == 0 && method == LabelingMethod::kListRanking) {
        EXPECT_GT(on_marked.num_cycle_vertices, 0u);
      }
    }
    const auto stop = [](const AsmNode& node) { return node.coverage == 1; };
    ExpectSameLabels(
        marked, SequentialLabel(marked, options, stop, "sequential"),
        compacted, SequentialLabel(compacted, options, stop, "sequential"));

    // Round 1 runs over the merged graph: contig vertices on the paths.
    LabelAndMerge(graph, options, &ordinals);
  }
}

TEST(UncompactedGraphTest, TipRemovalMatchesCompactedCopy) {
  // The two-level tip of CascadingTipsTriggerMultiplePhases: cut edges,
  // removed vertices and a second REQUEST phase.
  AssemblerOptions options = TestOptions();
  options.tip_length_threshold = 14;
  std::vector<std::string> reads(
      4, "GCAAGGTGCAAAACGCCAGTGGCTAGGGAGAGATCG");
  reads.insert(reads.end(), {"ACGCCAGTTAC", "GTTACTA", "GTTACCC"});
  AssemblyGraph graph = GraphFrom(reads, options);
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelAndMerge(graph, options, &ordinals);

  AssemblyGraph marked = WithRemovedVertices(graph);
  AssemblyGraph compacted = marked;
  compacted.Compact();
  const TipResult on_marked = RemoveTips(marked, options);
  const TipResult on_compacted = RemoveTips(compacted, options);
  EXPECT_GT(on_marked.vertices_removed, 0u);
  EXPECT_EQ(on_marked.vertices_removed, on_compacted.vertices_removed);
  EXPECT_EQ(on_marked.edges_cut, on_compacted.edges_cut);
  EXPECT_EQ(on_marked.requests_sent, on_compacted.requests_sent);
  // Both come back compacted, slot for slot alike.
  for (uint32_t p = 0; p < options.num_workers; ++p) {
    const std::vector<AsmNode>& a = marked.partition(p).vertices;
    const std::vector<AsmNode>& b = compacted.partition(p).vertices;
    ASSERT_EQ(a.size(), b.size()) << "partition " << p;
    for (size_t slot = 0; slot < a.size(); ++slot) {
      EXPECT_EQ(a[slot].id, b[slot].id);
      EXPECT_EQ(a[slot].edges, b[slot].edges);
      EXPECT_EQ(a[slot].seq.ToString(), b[slot].seq.ToString());
    }
  }
}

}  // namespace
}  // namespace ppa
