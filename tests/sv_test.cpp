// Tests for the simplified S-V connected components algorithm, including a
// property sweep against a union-find oracle and the O(log n) round bound.
#include "core/sv.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/random.h"

namespace ppa {
namespace {

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

std::vector<SvInput> FromEdges(size_t n,
                               const std::vector<std::pair<size_t, size_t>>&
                                   edges,
                               const std::vector<uint64_t>& ids) {
  std::vector<SvInput> inputs(n);
  for (size_t i = 0; i < n; ++i) inputs[i].id = ids[i];
  for (auto [a, b] : edges) {
    inputs[a].neighbors.push_back(ids[b]);
    inputs[b].neighbors.push_back(ids[a]);
  }
  return inputs;
}

void CheckAgainstOracle(size_t n,
                        const std::vector<std::pair<size_t, size_t>>& edges,
                        const std::vector<uint64_t>& ids) {
  SvResult result = RunSimplifiedSv(FromEdges(n, edges, ids), 4, 2);
  Dsu dsu(n);
  for (auto [a, b] : edges) dsu.Union(a, b);
  // Oracle: smallest id in each component.
  std::vector<uint64_t> expected(n, UINT64_MAX);
  for (size_t i = 0; i < n; ++i) {
    size_t root = dsu.Find(i);
    expected[root] = std::min(expected[root], ids[i]);
  }
  ASSERT_EQ(result.component.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(result.component[i], expected[dsu.Find(i)])
        << "vertex " << ids[i];
  }
}

TEST(SvTest, PathGraph) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < 50; ++i) edges.emplace_back(i, i + 1);
  std::vector<uint64_t> ids(50);
  std::iota(ids.begin(), ids.end(), 100);
  CheckAgainstOracle(50, edges, ids);
}

TEST(SvTest, CycleGraph) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < 64; ++i) edges.emplace_back(i, (i + 1) % 64);
  std::vector<uint64_t> ids(64);
  std::iota(ids.begin(), ids.end(), 5);
  CheckAgainstOracle(64, edges, ids);
}

TEST(SvTest, StarGraph) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 1; i < 40; ++i) edges.emplace_back(0, i);
  std::vector<uint64_t> ids(40);
  for (size_t i = 0; i < 40; ++i) ids[i] = 1000 - i;  // Center has max id.
  CheckAgainstOracle(40, edges, ids);
}

TEST(SvTest, IsolatedVertices) {
  std::vector<uint64_t> ids = {7, 13, 22};
  CheckAgainstOracle(3, {}, ids);
}

TEST(SvTest, TwoCycleAndSelfLoopTolerance) {
  // Multi-edges between two vertices and a self-loop.
  std::vector<std::pair<size_t, size_t>> edges = {{0, 1}, {0, 1}, {2, 2}};
  std::vector<uint64_t> ids = {30, 10, 20};
  CheckAgainstOracle(3, edges, ids);
}

// Property sweep: random graphs of varying size/density vs the oracle.
class SvRandomTest : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(SvRandomTest, MatchesUnionFind) {
  auto [n, density] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 977) + static_cast<uint64_t>(density * 100));
  std::vector<std::pair<size_t, size_t>> edges;
  auto num_edges = static_cast<size_t>(density * n);
  for (size_t e = 0; e < num_edges; ++e) {
    size_t a = rng.Below(n);
    size_t b = rng.Below(n);
    if (a != b) edges.emplace_back(a, b);
  }
  std::vector<uint64_t> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = Mix64(i) >> 8;  // Scrambled ids.
  CheckAgainstOracle(n, edges, ids);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SvRandomTest,
    ::testing::Combine(::testing::Values(10, 100, 500, 2000),
                       ::testing::Values(0.3, 0.8, 1.5, 3.0)));

TEST(SvTest, LogarithmicRoundBound) {
  // A long path is the worst case; rounds must stay O(log n).
  const size_t n = 4096;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  std::vector<uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 1);
  SvResult result = RunSimplifiedSv(FromEdges(n, edges, ids), 8, 2);
  // log2(4096) = 12; allow a small constant factor.
  EXPECT_LE(result.rounds, 40u);
  ASSERT_EQ(result.component.size(), n);
  EXPECT_EQ(result.component[n - 1], 1u);
}

}  // namespace
}  // namespace ppa
