// Tests for the simplified S-V connected components algorithm on job graphs
// built the way contig labeling builds them (every vertex of degree at most
// two, neighbors addressed by slot, no id index): paths, cycles and
// isolated vertices against a union-find oracle, and the O(log n) round
// bound.
#include "core/sv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/random.h"

namespace ppa {
namespace {

using Edges = std::vector<std::pair<size_t, size_t>>;

/// Union-find oracle.
class Dsu {
 public:
  explicit Dsu(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// An S-V job graph over `num_workers` partitions: vertex i has id ids[i]
/// and sits in partition PartitionOf(ids[i]); each edge gives both of its
/// ends a neighbor, so a vertex may take part in at most two edges.
struct SvJob {
  SvJob(const std::vector<uint64_t>& ids, const Edges& edges,
        uint32_t num_workers)
      : graph(num_workers), where(ids.size()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      auto& vertices = graph.partition(PartitionOf(ids[i], num_workers))
                           .vertices;
      where[i] = {PartitionOf(ids[i], num_workers),
                  static_cast<uint32_t>(vertices.size())};
      vertices.emplace_back().id = ids[i];
    }
    for (auto [a, b] : edges) {
      At(a).AddNeighbor(ids[b], where[b].second);
      At(b).AddNeighbor(ids[a], where[a].second);
    }
  }

  SvVertex& At(size_t i) {
    return graph.partition(where[i].first).vertices[where[i].second];
  }

  PartitionedGraph<SvVertex> graph;
  std::vector<std::pair<uint32_t, uint32_t>> where;  // (partition, slot).
};

void CheckAgainstOracle(const std::vector<uint64_t>& ids, const Edges& edges,
                        uint32_t num_workers = 4) {
  SvJob job(ids, edges, num_workers);
  RunSimplifiedSv(job.graph, 2, "sv-test");
  const size_t n = ids.size();
  Dsu dsu(n);
  for (auto [a, b] : edges) dsu.Union(a, b);
  // Oracle: smallest id in each component.
  std::vector<uint64_t> expected(n, UINT64_MAX);
  for (size_t i = 0; i < n; ++i) {
    size_t root = dsu.Find(i);
    expected[root] = std::min(expected[root], ids[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(job.At(i).d, expected[dsu.Find(i)]) << "vertex " << ids[i];
  }
}

std::vector<uint64_t> IdsFrom(uint64_t first, size_t n) {
  std::vector<uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

TEST(SvTest, PathGraph) {
  Edges edges;
  for (size_t i = 0; i + 1 < 50; ++i) edges.emplace_back(i, i + 1);
  CheckAgainstOracle(IdsFrom(100, 50), edges);
}

TEST(SvTest, CycleGraph) {
  Edges edges;
  for (size_t i = 0; i < 64; ++i) edges.emplace_back(i, (i + 1) % 64);
  CheckAgainstOracle(IdsFrom(5, 64), edges);
}

TEST(SvTest, IsolatedVertices) { CheckAgainstOracle({7, 13, 22}, {}); }

TEST(SvTest, TwoCycleAndSelfLoopTolerance) {
  // Multi-edges between two vertices and a self-loop.
  Edges edges = {{0, 1}, {0, 1}, {2, 2}};
  CheckAgainstOracle({30, 10, 20}, edges);
}

TEST(SvTest, AbsentNeighborIsIgnored) {
  // A path 40 - 50 - 60 whose ends also name ids the job does not hold
  // (slot kAbsent): announcements to them are counted and dropped, and
  // the labels are the path's alone.
  SvJob job({40, 50, 60}, {{0, 1}, {1, 2}}, 4);
  job.At(0).AddNeighbor(3, IdSlotIndex::kAbsent);
  job.At(2).AddNeighbor(1, IdSlotIndex::kAbsent);
  const RunStats stats = RunSimplifiedSv(job.graph, 2, "sv-test");
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(job.At(i).d, 40u);
  // Each round's p2 stages one announcement per neighbor, 2 of its 6 to
  // absent ids; the last superstep is the p0 that sees the quiet round.
  uint64_t announces = 0;
  for (const SuperstepStats& s : stats.supersteps) {
    if (s.superstep % 4 == 2) announces += s.messages_sent;
  }
  EXPECT_EQ(stats.num_supersteps() % 4, 1u);
  EXPECT_EQ(announces, 6u * (stats.num_supersteps() / 4));
}

// Property sweep: random disjoint unions of paths and cycles (what contig
// labeling hands S-V) with scrambled ids, against the oracle.
class SvRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(SvRandomTest, MatchesUnionFind) {
  auto [n, num_workers] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 977 + num_workers);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  // Cut the shuffled vertices into runs of 1-40; each run is a path or,
  // one time in three, a cycle (a run of 1 a self-loop, of 2 a double
  // edge).
  Edges edges;
  for (size_t begin = 0; begin < order.size();) {
    const size_t len = std::min<size_t>(1 + rng.Below(40),
                                        order.size() - begin);
    for (size_t i = begin; i + 1 < begin + len; ++i) {
      edges.emplace_back(order[i], order[i + 1]);
    }
    if (rng.Below(3) == 0) edges.emplace_back(order[begin + len - 1],
                                              order[begin]);
    begin += len;
  }
  std::vector<uint64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = Mix64(i) >> 8;  // Scrambled ids.
  CheckAgainstOracle(ids, edges, num_workers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SvRandomTest,
    ::testing::Combine(::testing::Values(10, 100, 500, 2000),
                       ::testing::Values(1u, 4u, 8u)));

TEST(SvTest, LogarithmicRoundBound) {
  // A long path is the worst case; rounds must stay O(log n).
  const size_t n = 4096;
  Edges edges;
  for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  SvJob job(IdsFrom(1, n), edges, 8);
  const RunStats stats = RunSimplifiedSv(job.graph, 2, "sv-test");
  // log2(4096) = 12; allow a small constant factor.
  EXPECT_LE(stats.num_supersteps() / 4, 40u);
  EXPECT_EQ(job.At(n - 1).d, 1u);
}

}  // namespace
}  // namespace ppa
