// Simplified Shiloach-Vishkin connected components (Sec. II).
//
// The paper's variant drops the original S-V "star hooking" step: a forest
// of parent pointers D[v] is maintained; each round performs (1) tree
// hooking — for each edge (u,v), if w = D[u] is a tree root, hook w under a
// smaller neighbor parent — and (2) shortcutting — D[v] <- D[D[v]]. D[v]
// decreases monotonically and converges to the smallest vertex ID in v's
// connected component in O(log n) rounds.
//
// Pregel schedule (4 supersteps per round):
//   p0: apply hook messages and the saved grandparent shortcut (both as
//       min-updates, which keeps monotonicity even under stale values),
//       aggregate the number of changed D[v], then query D[v] for its parent;
//   p1: answer parent queries;
//   p2: record the grandparent; broadcast D[v] to neighbors;
//   p3: if own parent is a root, send a min-hook to it.
// Termination: a round in which no D[v] changed; every vertex observes the
// zero aggregate and votes to halt at the next p0.
//
// Every send is addressed (pregel/engine.h): a vertex keeps the slot of
// its D[v] and grandparent beside their ids, and each 16-byte message
// names one vertex by id and slot (a query its sender, the others the D[]
// value they carry). RunSimplifiedSv resolves each neighbor's slot once,
// when it builds the job graph, into one {id, slot} array per partition.
#ifndef PPA_CORE_SV_H_
#define PPA_CORE_SV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pregel/stats.h"

namespace ppa {

/// One input vertex: an ID and its undirected neighbor IDs.
struct SvInput {
  uint64_t id = 0;
  std::vector<uint64_t> neighbors;
};

/// Result: component label (smallest vertex ID in the component) per vertex.
struct SvResult {
  // component[i] labels the i-th input vertex: the result is in input
  // order, so a caller maps it back by position, not by id.
  std::vector<uint64_t> component;
  RunStats stats;
  uint32_t rounds = 0;
};

/// Runs the simplified S-V algorithm on the given graph. Input ids must be
/// distinct.
SvResult RunSimplifiedSv(const std::vector<SvInput>& vertices,
                         uint32_t num_workers, unsigned num_threads = 0,
                         const std::string& job_name = "simplified-sv");

}  // namespace ppa

#endif  // PPA_CORE_SV_H_
