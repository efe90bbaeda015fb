// Tests for contig labeling (operation 2): end recognition, bidirectional
// list ranking, the cycle fallback, and LR/S-V agreement.
#include "core/contig_labeling.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dbg_construction.h"
#include "dna/read.h"
#include "util/random.h"

namespace ppa {
namespace {

AssemblerOptions TestOptions(int k = 5) {
  AssemblerOptions options;
  options.k = k;
  options.coverage_threshold = 1;
  options.num_workers = 4;
  options.num_threads = 2;
  return options;
}

/// DBG from explicit read strings.
AssemblyGraph GraphFrom(const std::vector<std::string>& read_strs,
                        const AssemblerOptions& options) {
  std::vector<Read> reads;
  for (size_t i = 0; i < read_strs.size(); ++i) {
    reads.push_back(Read{"r" + std::to_string(i), read_strs[i], ""});
  }
  DbgResult dbg = BuildDbg(reads, options);
  return std::move(dbg.graph);
}

/// The labels of `result` keyed by vertex id, read off its (partition,
/// slot) lists over the graph it labeled.
std::unordered_map<uint64_t, uint64_t> LabelsById(
    const AssemblyGraph& graph, const LabelingResult& result) {
  std::unordered_map<uint64_t, uint64_t> by_id;
  for (const std::vector<LabelEntry>& entries : result.labels) {
    for (const LabelEntry& e : entries) {
      by_id[graph.partition(e.partition).vertices[e.slot].id] = e.label;
    }
  }
  return by_id;
}

size_t DistinctLabels(const std::unordered_map<uint64_t, uint64_t>& by_id) {
  std::unordered_set<uint64_t> labels;
  for (const auto& [id, label] : by_id) labels.insert(label);
  return labels.size();
}

TEST(LabelingTest, SinglePathGetsOneLabel) {
  AssemblerOptions options = TestOptions();
  // One linear read: all k-mers unambiguous, one path.
  AssemblyGraph graph = GraphFrom({"AGGCTGCAACTCATCGACTCTATGT"}, options);
  ASSERT_GT(graph.live_size(), 0u);

  for (LabelingMethod method :
       {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
    LabelingResult result = LabelContigs(graph, options, method);
    const auto labels = LabelsById(graph, result);
    EXPECT_EQ(result.num_ambiguous, 0u) << LabelingMethodName(method);
    EXPECT_EQ(labels.size(), graph.live_size());
    EXPECT_EQ(DistinctLabels(labels), 1u);
  }
}

TEST(LabelingTest, ForkSplitsPaths) {
  AssemblerOptions options = TestOptions();
  // Two reads sharing a prefix: the junction k-mer becomes ambiguous.
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGAT", "ACGTTGCATACCA"}, options);

  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  const auto labels = LabelsById(graph, result);
  EXPECT_GT(result.num_ambiguous, 0u);
  EXPECT_GT(DistinctLabels(labels), 1u);
  // Ambiguous vertices carry no label.
  graph.ForEach([&](const AsmNode& node) {
    if (!node.IsUnambiguousPathNode()) {
      EXPECT_EQ(labels.count(node.id), 0u);
    }
  });
}

TEST(LabelingTest, LrAndSvAgreeOnGrouping) {
  AssemblerOptions options = TestOptions();
  AssemblyGraph graph = GraphFrom(
      {"ACGTTGCATGGATCCTAGGG", "ACGTTGCATACCATTTGACG",
       "TTGACGGGATCCTAGGGCAT"},
      options);

  const auto lr = LabelsById(
      graph, LabelContigs(graph, options, LabelingMethod::kListRanking));
  const auto sv = LabelsById(
      graph, LabelContigs(graph, options, LabelingMethod::kSimplifiedSv));

  ASSERT_EQ(lr.size(), sv.size());
  // The label *values* differ (LR: min end id; SV: min id) but the induced
  // partitions must be identical.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> lr_groups;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> sv_groups;
  for (const auto& [id, label] : lr) lr_groups[label].insert(id);
  for (const auto& [id, label] : sv) sv_groups[label].insert(id);
  ASSERT_EQ(lr_groups.size(), sv_groups.size());
  for (const auto& [label, members] : lr_groups) {
    // Find the SV group of any member; must be identical.
    uint64_t sv_label = sv.at(*members.begin());
    EXPECT_EQ(sv_groups.at(sv_label), members);
  }
}

TEST(LabelingTest, PureCycleFallsBackToSv) {
  AssemblerOptions options = TestOptions(3);
  // A circular sequence: take a string whose DBG is one cycle. Repeating
  // the circle twice makes every 4-mer of the circle appear.
  // Circle: "ACGGTA" (len 6); reads cover it cyclically.
  AssemblyGraph graph = GraphFrom({"ACGGTAACGGTAAC"}, options);
  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  const auto labels = LabelsById(graph, result);
  // Either the graph has ambiguity (depending on k) or a cycle was found
  // and labeled via the fallback. All unambiguous vertices must be labeled.
  graph.ForEach([&](const AsmNode& node) {
    if (node.IsUnambiguousPathNode()) {
      EXPECT_EQ(labels.count(node.id), 1u);
    }
  });
  if (result.num_cycle_vertices > 0) {
    EXPECT_GT(result.cycle_sv_stats.num_supersteps(), 0u);
  }
}

TEST(LabelingTest, LrBeatsSvOnSuperstepsAndMessages) {
  AssemblerOptions options = TestOptions();
  options.num_workers = 8;
  // A long single path stresses the round counts.
  std::string genome;
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) genome += CharFromBase(rng.Next() & 3);
  AssemblyGraph graph = GraphFrom({genome}, options);

  LabelingResult lr =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  LabelingResult sv =
      LabelContigs(graph, options, LabelingMethod::kSimplifiedSv);
  // Table II shape.
  EXPECT_LT(lr.total_supersteps(), sv.total_supersteps());
  EXPECT_LT(lr.total_messages(), sv.total_messages());
  // O(log n) supersteps: 2 endrec + 2 per round.
  EXPECT_LE(lr.total_supersteps(), 2u + 2u * 16u);
}

TEST(LabelingTest, LabelIsSmallerEndMarkedId) {
  AssemblerOptions options = TestOptions();
  AssemblyGraph graph = GraphFrom({"AGGCTGCAACTCATCGACTCTATGT"}, options);
  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  // The LR label of a path is one of its member ids (the smaller end).
  std::unordered_set<uint64_t> ids;
  graph.ForEach([&](const AsmNode& node) { ids.insert(node.id); });
  for (const auto& [id, label] : LabelsById(graph, result)) {
    EXPECT_TRUE(ids.count(label) == 1) << label;
  }
}

TEST(LabelingTest, PathThroughWorkerZerosFirstContigGetsOneLabel) {
  // A - C - B, all unambiguous, where C is the first contig worker 0 names.
  // Its id must not read as the dead-end marker kNullId, or A and B each
  // take their side toward C for a contig end.
  AssemblerOptions options = TestOptions();
  AsmNode a;
  a.id = Kmer::FromString("ACGTA").code();
  a.k = 5;
  a.kmer_code = a.id;
  AsmNode b = a;
  b.id = b.kmer_code = Kmer::FromString("CCGTA").code();
  AsmNode c;
  c.id = MakeContigId(0, 0);
  c.kind = NodeKind::kContig;
  c.k = 5;
  c.seq = PackedSequence::FromString("TACCTTGAGGC");
  c.edges = {BiEdge{a.id, NodeEnd::k5, NodeEnd::k3, 3},
             BiEdge{b.id, NodeEnd::k3, NodeEnd::k5, 3}};
  a.edges = {BiEdge{c.id, NodeEnd::k3, NodeEnd::k5, 3}};
  b.edges = {BiEdge{c.id, NodeEnd::k5, NodeEnd::k3, 3}};
  AssemblyGraph graph(options.num_workers);
  for (const AsmNode& node : {a, b, c}) graph.Add(node);

  for (LabelingMethod method :
       {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
    LabelingResult result = LabelContigs(graph, options, method);
    const auto labels = LabelsById(graph, result);
    EXPECT_EQ(result.num_ambiguous, 0u) << LabelingMethodName(method);
    EXPECT_EQ(labels.size(), 3u) << LabelingMethodName(method);
    EXPECT_EQ(DistinctLabels(labels), 1u) << LabelingMethodName(method);
  }
}

}  // namespace
}  // namespace ppa
