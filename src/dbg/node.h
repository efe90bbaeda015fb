// The assembly graph node: the unified k-mer / contig vertex.
//
// Sec. IV.A defines two vertex kinds — k-mer vertices and contig vertices —
// and three vertex types: <1> (dead end), <1-1> (unambiguous) and <m-n>
// (ambiguous). DBG construction unpacks each vertex's Fig. 8a bitmap
// entries into the equivalent bidirected-edge view (see dbg/adjacency.h),
// which both kinds share: an edge endpoint attaches to a node *end* (5'/3'
// of the node's stored orientation). All polarity bookkeeping of the paper
// maps 1:1 onto ends; translation helpers and tests live in adjacency.h.
//
// The vertex-type rules are free functions over an edge list
// (ClassifyVertex, UniqueEdgeAt), so AsmNode and the job vertices that copy
// its edges (tip removal) classify by one definition.
#ifndef PPA_DBG_NODE_H_
#define PPA_DBG_NODE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dbg/adjacency.h"
#include "dbg/ids.h"
#include "dna/kmer.h"
#include "dna/sequence.h"
#include "pregel/graph.h"

namespace ppa {

/// Vertex kind (Sec. IV.A: "There are two kinds of vertices ... (1) k-mer
/// and (2) contig").
enum class NodeKind : uint8_t { kKmer = 0, kContig = 1 };

/// Vertex type (Sec. IV.A "Vertex Types").
enum class VertexType : uint8_t {
  kOne = 0,       // <1>: dead end on one side — tip candidate
  kOneOne = 1,    // <1-1>: unambiguous, inside a simple path
  kManyMany = 2,  // <m-n>: ambiguous
  kIsolated = 3,  // contig with two dead ends (tip unless long)
};

/// One bidirected edge endpoint record stored at a node.
struct BiEdge {
  uint64_t to = kNullId;          // adjacent node id
  NodeEnd my_end = NodeEnd::k5;   // which end of *this* node it attaches to
  NodeEnd to_end = NodeEnd::k5;   // which end of the neighbor it attaches to
  uint32_t coverage = 0;          // (k+1)-mer coverage of the edge

  friend bool operator==(const BiEdge& a, const BiEdge& b) {
    return a.to == b.to && a.my_end == b.my_end && a.to_end == b.to_end &&
           a.coverage == b.coverage;
  }
};

/// Classifies a node with id `id` and edge list `edges` per Sec. IV.A. A
/// node is unambiguous (<1-1>) iff it has exactly one edge at each end and
/// no self-loop — the bidirected formulation of "both edges agree on the
/// polarity label for v ... one neighbor is an in-neighbor and the other is
/// an out-neighbor". A self-loop (repeat structure) is always ambiguous.
inline VertexType ClassifyVertex(uint64_t id, std::span<const BiEdge> edges) {
  int d5 = 0;
  int d3 = 0;
  for (const BiEdge& e : edges) {
    if (e.to == id) return VertexType::kManyMany;
    if (e.my_end == NodeEnd::k5) {
      ++d5;
    } else {
      ++d3;
    }
  }
  if (d5 == 0 && d3 == 0) return VertexType::kIsolated;
  if (d5 + d3 == 1) return VertexType::kOne;
  if (d5 == 1 && d3 == 1) return VertexType::kOneOne;
  return VertexType::kManyMany;
}

/// The single edge of `edges` attached at `end`; null if absent or not
/// unique.
inline const BiEdge* UniqueEdgeAt(std::span<const BiEdge> edges,
                                  NodeEnd end) {
  const BiEdge* found = nullptr;
  for (const BiEdge& e : edges) {
    if (e.my_end != end) continue;
    if (found != nullptr) return nullptr;
    found = &e;
  }
  return found;
}

/// Unified assembly-graph node: storage only. Operations run as Pregel
/// jobs over job-specific vertex types that mirror the graph slot for slot
/// (pregel/convert.h), and write their results back by slot.
struct AsmNode {
  uint64_t id = 0;
  bool removed = false;

  NodeKind kind = NodeKind::kKmer;
  uint8_t k = 0;            // k for k-mer nodes (and overlap width globally)
  PackedSequence seq;       // payload for contig nodes (strand-1 orientation)
  uint32_t coverage = 0;    // contig: min merged edge coverage; k-mer: unused
  bool circular = false;    // contig built from a cycle of <1-1> vertices
  std::vector<BiEdge> edges;

  /// Sequence length in bases (k for k-mer nodes).
  size_t SeqLength() const {
    return kind == NodeKind::kKmer ? k : seq.size();
  }

  /// Vertex type per Sec. IV.A (see ClassifyVertex).
  VertexType Type() const { return ClassifyVertex(id, edges); }

  bool IsUnambiguousPathNode() const {
    VertexType t = Type();
    return t == VertexType::kOne || t == VertexType::kOneOne ||
           t == VertexType::kIsolated;
  }

  /// The single edge attached at `end`; null if absent or not unique.
  const BiEdge* EdgeAt(NodeEnd end) const { return UniqueEdgeAt(edges, end); }

  /// Id of the single neighbor at `end`; kNullId (the paper's dead-end
  /// marker) if there is none or more than one.
  uint64_t NeighborAt(NodeEnd end) const {
    const BiEdge* e = EdgeAt(end);
    return e != nullptr ? e->to : kNullId;
  }

  /// Ids of all neighbors, sorted and distinct, without the node itself
  /// (or kNullId).
  std::vector<uint64_t> DistinctNeighbors() const {
    std::vector<uint64_t> out;
    out.reserve(edges.size());
    for (const BiEdge& e : edges) {
      if (e.to != kNullId && e.to != id) out.push_back(e.to);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Removes all edges to `nbr` attached at our `end` matching the
  /// neighbor's end; returns the number removed.
  int RemoveEdge(uint64_t nbr, NodeEnd my_end_v, NodeEnd to_end_v) {
    int removed_n = 0;
    for (size_t i = edges.size(); i > 0; --i) {
      const BiEdge& e = edges[i - 1];
      if (e.to == nbr && e.my_end == my_end_v && e.to_end == to_end_v) {
        edges.erase(edges.begin() + static_cast<long>(i - 1));
        ++removed_n;
      }
    }
    return removed_n;
  }
};

// A k-mer node's id is its canonical code (dbg/ids.h), so the node stores
// no separate k-mer payload.
static_assert(sizeof(AsmNode) <= 80, "AsmNode grew past 80 bytes");

/// The partitioned assembly graph all operations read and write.
using AssemblyGraph = PartitionedGraph<AsmNode>;

}  // namespace ppa

#endif  // PPA_DBG_NODE_H_
