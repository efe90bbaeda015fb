#include "core/bubble_filter.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "pregel/mapreduce.h"
#include "util/edit_distance.h"

namespace ppa {

namespace {

/// Bubble candidate: a contig with two ambiguous endpoints, keyed by its
/// endpoint pair (nb1, nb2) with nb1 <= nb2, and for a loop (nb1 == nb2)
/// with nb1_end <= nb2_end. Its sequence stays in the graph: the reducer
/// reads it from (PartitionOf(contig_id), slot) and reverse-complements it
/// if `reversed`, so it reads from nb1 to nb2.
struct BubbleCandidate {
  uint64_t contig_id = 0;
  uint32_t slot = 0;
  uint32_t coverage = 0;
  // Attachment ends at (nb1, nb2) after normalization — two contigs are
  // parallel only if these match.
  NodeEnd nb1_end = NodeEnd::k5;
  NodeEnd nb2_end = NodeEnd::k5;
  bool reversed = false;
};

}  // namespace

Partitioned<const AsmNode*> BubbleCandidates(const AssemblyGraph& graph) {
  Partitioned<const AsmNode*> candidates(graph.num_workers());
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    for (const AsmNode& node : graph.partition(p).vertices) {
      if (node.removed || node.kind != NodeKind::kContig) continue;
      if (node.EdgeAt(NodeEnd::k5) == nullptr ||
          node.EdgeAt(NodeEnd::k3) == nullptr) {
        continue;
      }
      candidates[p].push_back(&node);
    }
  }
  return candidates;
}

void RemoveContigs(AssemblyGraph& graph,
                   const Partitioned<uint64_t>& contig_ids) {
  for (const std::vector<uint64_t>& part : contig_ids) {
    for (uint64_t contig_id : part) {
      AsmNode* contig = graph.Find(contig_id);
      if (contig == nullptr) continue;
      for (const BiEdge& e : contig->edges) {
        AsmNode* endpoint = graph.Find(e.to);
        if (endpoint != nullptr) {
          endpoint->RemoveEdge(contig_id, e.to_end, e.my_end);
        }
      }
      contig->removed = true;
    }
  }
  graph.Compact();
}

BubbleResult FilterBubbles(AssemblyGraph& graph,
                           const AssemblerOptions& options,
                           PipelineStats* stats) {
  CheckGraphWorkers("FilterBubbles", graph.num_workers(), options);
  BubbleResult result;

  // ---- Map over the candidates in place: contigs with an edge at each
  // end. The graph is not modified until the job ends, so the reducer
  // reads candidate sequences from it. ----------------------------------------
  const AssemblyGraph& in_graph = graph;
  const uint32_t W = graph.num_workers();
  auto map_fn = [&in_graph, W](const AsmNode* node, auto& emitter) {
    const BiEdge* e5 = node->EdgeAt(NodeEnd::k5);
    const BiEdge* e3 = node->EdgeAt(NodeEnd::k3);
    BubbleCandidate c;
    c.contig_id = node->id;
    c.slot = static_cast<uint32_t>(
        node - in_graph.partition(PartitionOf(node->id, W)).vertices.data());
    c.coverage = node->coverage;
    // Orient from the smaller neighbor: reverse complement if it is at 3'.
    // A loop is oriented from the smaller attachment end, so that which
    // strand it is stored on does not decide its ends.
    c.reversed = e3->to < e5->to ||
                 (e3->to == e5->to && e3->to_end < e5->to_end);
    c.nb1_end = c.reversed ? e3->to_end : e5->to_end;
    c.nb2_end = c.reversed ? e5->to_end : e3->to_end;
    emitter.Emit(PairKey{std::min(e5->to, e3->to), std::max(e5->to, e3->to)},
                 c);
  };

  const uint32_t edit_threshold = options.bubble_edit_distance;
  std::atomic<uint64_t> groups{0};
  auto reduce_fn = [&](const PairKey& key, std::span<BubbleCandidate> group,
                       std::vector<uint64_t>& pruned_out) {
    if (group.size() < 2) return;
    groups.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::string> seqs;
    seqs.reserve(group.size());
    for (const BubbleCandidate& c : group) {
      const PackedSequence& seq =
          in_graph.partition(PartitionOf(c.contig_id, W)).vertices[c.slot].seq;
      std::string read = seq.ToString();
      if (c.reversed) {
        read = seq.ReverseComplement().ToString();
      } else if (key.first == key.second && c.nb1_end == c.nb2_end) {
        // A loop that leaves and re-enters one end of its vertex has no
        // direction of its own: read it on its lexicographically smaller
        // strand.
        read = std::min(read, seq.ReverseComplement().ToString());
      }
      seqs.push_back(std::move(read));
    }
    std::vector<bool> pruned(group.size(), false);
    // "We then process each contig ci as follows: if ci is not already
    //  pruned, we check whether any contig cj (j > i) can prune ci."
    for (size_t i = 0; i < group.size(); ++i) {
      if (pruned[i]) continue;
      for (size_t j = i + 1; j < group.size(); ++j) {
        if (pruned[j]) continue;
        const BubbleCandidate& a = group[i];
        const BubbleCandidate& b = group[j];
        if (a.nb1_end != b.nb1_end || a.nb2_end != b.nb2_end) continue;
        if (!WithinEditDistance(seqs[i], seqs[j], edit_threshold)) continue;
        // Prune the lower-coverage side (ties: the larger id, so the
        // outcome is deterministic).
        bool prune_a = (a.coverage < b.coverage) ||
                       (a.coverage == b.coverage &&
                        a.contig_id > b.contig_id);
        if (prune_a) {
          pruned[i] = true;
          pruned_out.push_back(a.contig_id);
          break;  // ci is pruned; move on.
        }
        pruned[j] = true;
        pruned_out.push_back(b.contig_id);
      }
    }
  };

  Partitioned<uint64_t> pruned =
      RunMapReduce<const AsmNode*, PairKey, BubbleCandidate, uint64_t>(
          BubbleCandidates(graph), map_fn, reduce_fn,
          MakeMrConfig(options, "bubble-filtering"), &result.stats);
  if (stats != nullptr) stats->Add(result.stats);
  result.candidate_groups = groups.load();

  // Each candidate sits in one (nb1, nb2) group and is pruned at most once
  // there, so no id repeats.
  for (const std::vector<uint64_t>& part : pruned) {
    result.contigs_pruned += part.size();
  }
  RemoveContigs(graph, pruned);
  return result;
}

}  // namespace ppa
