// Tests for contig labeling (operation 2): end recognition, bidirectional
// list ranking, the cycle fallback, and LR/S-V agreement.
#include "core/contig_labeling.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Expects LR's and S-V's labels to induce the same partition of the
/// vertices. The label *values* differ (LR: min end id; S-V: min id).
void ExpectSameGrouping(const std::unordered_map<uint64_t, uint64_t>& lr,
                        const std::unordered_map<uint64_t, uint64_t>& sv) {
  ASSERT_EQ(lr.size(), sv.size());
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> lr_groups;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> sv_groups;
  for (const auto& [id, label] : lr) lr_groups[label].insert(id);
  for (const auto& [id, label] : sv) sv_groups[label].insert(id);
  ASSERT_EQ(lr_groups.size(), sv_groups.size());
  for (const auto& [label, members] : lr_groups) {
    // Find the S-V group of any member; must be identical.
    EXPECT_EQ(sv_groups.at(sv.at(*members.begin())), members);
  }
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

  ExpectSameGrouping(lr, sv);
}

TEST(LabelingTest, PureCycleFallsBackToSv) {
  AssemblerOptions options = TestOptions(3);
  // Circle "ACGGTA" (len 6); repeating it covers every 4-mer of the circle,
  // so the DBG is one cycle of 6 <1-1> vertices, which LR cannot finish.
  AssemblyGraph graph = GraphFrom({"ACGGTAACGGTAAC"}, options);
  LabelingResult result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  const auto labels = LabelsById(graph, result);
  EXPECT_EQ(result.num_ambiguous, 0u);
  EXPECT_EQ(result.num_cycle_vertices, 6u);
  EXPECT_GT(result.cycle_sv_stats.num_supersteps(), 0u);
  uint64_t smallest = UINT64_MAX;
  graph.ForEach([&](const AsmNode& node) {
    smallest = std::min(smallest, node.id);
  });
  ASSERT_EQ(labels.size(), 6u);
  for (const auto& [id, label] : labels) EXPECT_EQ(label, smallest) << id;
}

/// Reads for a graph with both kinds of contig: a fork (a shared prefix P
/// then two branch suffixes, so the last k-mer of P is an ambiguous <1-2>
/// vertex between three linear paths) and two disjoint circles, each read
/// once around plus k bases so that every edge mer of the circle occurs.
struct PathsAndCycles {
  static constexpr int kK = 15;
  std::string prefix, branch[2], circle[2];

  PathsAndCycles() {
    Rng rng(2024);
    auto random_bases = [&rng](size_t n) {
      std::string s;
      for (size_t i = 0; i < n; ++i) s += CharFromBase(rng.Next() & 3);
      return s;
    };
    // The branches differ in their first base, so the fork is at P's end.
    prefix = random_bases(40);
    branch[0] = "A" + random_bases(29);
    branch[1] = "C" + random_bases(34);
    circle[0] = random_bases(45);
    circle[1] = random_bases(60);
  }

  std::vector<std::string> Reads() const {
    return {prefix + branch[0], prefix + branch[1],
            circle[0] + circle[0].substr(0, kK),
            circle[1] + circle[1].substr(0, kK)};
  }

  /// Vertex id of the k-mer of `s` at `pos`.
  static uint64_t IdAt(const std::string& s, size_t pos) {
    return Kmer::FromString(s.substr(pos, kK)).Canonical().code();
  }
};

TEST(LabelingTest, CycleLeftoversBesidePathsGoToSvAlone) {
  AssemblerOptions options = TestOptions(PathsAndCycles::kK);
  const PathsAndCycles input;
  AssemblyGraph graph = GraphFrom(input.Reads(), options);

  const LabelingResult lr_result =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  const auto lr = LabelsById(graph, lr_result);
  // Only the circles' k-mers are left to S-V.
  const size_t cycle_vertices =
      input.circle[0].size() + input.circle[1].size();
  EXPECT_EQ(lr_result.num_ambiguous, 1u);
  EXPECT_EQ(lr_result.num_cycle_vertices, cycle_vertices);
  EXPECT_GT(lr_result.cycle_sv_stats.num_supersteps(), 0u);

  // Expected labels, from the construction. A circle: its smallest id. A
  // path: its smaller end id (LR's label), where the prefix path runs from
  // P's first k-mer to the one before the junction and each branch path
  // from the k-mer after the junction to its read's last k-mer.
  std::unordered_map<uint64_t, uint64_t> expected;
  for (const std::string& circle : input.circle) {
    const std::string read = circle + circle.substr(0, PathsAndCycles::kK);
    uint64_t smallest = UINT64_MAX;
    for (size_t i = 0; i < circle.size(); ++i) {
      smallest = std::min(smallest, PathsAndCycles::IdAt(read, i));
    }
    for (size_t i = 0; i < circle.size(); ++i) {
      expected[PathsAndCycles::IdAt(read, i)] = smallest;
    }
  }
  auto expect_path = [&](const std::string& read, size_t first,
                         size_t last) {
    const uint64_t label = std::min(PathsAndCycles::IdAt(read, first),
                                    PathsAndCycles::IdAt(read, last));
    for (size_t i = first; i <= last; ++i) {
      expected[PathsAndCycles::IdAt(read, i)] = label;
    }
  };
  const size_t junction = input.prefix.size() - PathsAndCycles::kK;
  expect_path(input.prefix, 0, junction - 1);
  for (const std::string& branch : input.branch) {
    const std::string read = input.prefix + branch;
    expect_path(read, junction + 1, read.size() - PathsAndCycles::kK);
  }
  EXPECT_EQ(lr.size(), expected.size());
  for (const auto& [id, label] : expected) {
    ASSERT_EQ(lr.count(id), 1u) << id;
    EXPECT_EQ(lr.at(id), label) << id;
  }

  EXPECT_EQ(DistinctLabels(lr), 5u);
  ExpectSameGrouping(
      lr, LabelsById(graph, LabelContigs(graph, options,
                                         LabelingMethod::kSimplifiedSv)));
}

TEST(LabelingTest, TableCountsArePinned) {
  // Supersteps, messages and message bytes are the Table II/III numbers,
  // so a change to how either job is built must leave them exact.
  AssemblerOptions options = TestOptions(PathsAndCycles::kK);
  AssemblyGraph graph = GraphFrom(PathsAndCycles().Reads(), options);
  auto expect_counts = [](const RunStats& stats, uint32_t supersteps,
                          uint64_t messages, uint64_t bytes) {
    SCOPED_TRACE(stats.job_name);
    EXPECT_EQ(stats.num_supersteps(), supersteps);
    EXPECT_EQ(stats.total_messages(), messages);
    EXPECT_EQ(stats.total_bytes(), bytes);
  };
  const LabelingResult lr =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  expect_counts(lr.stats, 23, 5643, 90288);  // End recognition, then LR.
  expect_counts(lr.cycle_sv_stats, 41, 4312, 68992);  // The two circles.
  const LabelingResult sv =
      LabelContigs(graph, options, LabelingMethod::kSimplifiedSv);
  expect_counts(sv.stats, 2, 3, 48);  // End recognition.
  expect_counts(sv.cycle_sv_stats, 41, 7942, 127072);
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
  AsmNode b = a;
  b.id = Kmer::FromString("CCGTA").code();
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
