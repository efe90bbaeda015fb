#include "core/bubble_filter.h"

#include <atomic>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pregel/mapreduce.h"
#include "util/edit_distance.h"
#include "util/hash.h"

namespace ppa {

namespace {

/// Bubble candidate: a contig with two ambiguous endpoints, normalized so
/// its sequence reads from the smaller endpoint to the larger one.
struct BubbleCandidate {
  uint64_t contig_id = 0;
  uint32_t coverage = 0;
  // Attachment ends at (nb1, nb2) after normalization — two contigs are
  // parallel only if these match.
  NodeEnd nb1_end = NodeEnd::k5;
  NodeEnd nb2_end = NodeEnd::k5;
  std::string seq;  // normalized orientation
};

/// Pruning instruction: endpoint vertex -> drop its edge to a contig.
struct PruneNotice {
  uint64_t contig_id = 0;
  NodeEnd my_end = NodeEnd::k5;      // endpoint vertex's end
  NodeEnd contig_end = NodeEnd::k5;  // contig's end
};

}  // namespace

BubbleResult FilterBubbles(AssemblyGraph& graph,
                           const AssemblerOptions& options,
                           PipelineStats* stats) {
  CheckGraphWorkers("FilterBubbles", graph.num_workers(), options);
  const uint32_t W = options.num_workers;
  BubbleResult result;

  // ---- Collect candidates: contigs with two ambiguous neighbors. ---------
  Partitioned<AsmNode> input(W);
  for (uint32_t p = 0; p < W; ++p) {
    for (const AsmNode& node : graph.partition(p).vertices) {
      if (node.removed || node.kind != NodeKind::kContig) continue;
      const BiEdge* e5 = node.EdgeAt(NodeEnd::k5);
      const BiEdge* e3 = node.EdgeAt(NodeEnd::k3);
      if (e5 == nullptr || e3 == nullptr) continue;
      input[p].push_back(node);
    }
  }

  using Key = std::pair<uint64_t, uint64_t>;
  auto map_fn = [](const AsmNode& node, auto& emitter) {
    const BiEdge* e5 = node.EdgeAt(NodeEnd::k5);
    const BiEdge* e3 = node.EdgeAt(NodeEnd::k3);
    BubbleCandidate c;
    c.contig_id = node.id;
    c.coverage = node.coverage;
    uint64_t nb1 = e5->to;
    uint64_t nb2 = e3->to;
    if (nb1 <= nb2) {
      c.seq = node.seq.ToString();
      c.nb1_end = e5->to_end;
      c.nb2_end = e3->to_end;
    } else {
      // Orient from the smaller neighbor: reverse complement.
      std::swap(nb1, nb2);
      c.seq = node.seq.ReverseComplement().ToString();
      c.nb1_end = e3->to_end;
      c.nb2_end = e5->to_end;
    }
    emitter.Emit(Key{nb1, nb2}, std::move(c));
  };

  const uint32_t edit_threshold = options.bubble_edit_distance;
  std::atomic<uint64_t> groups{0};
  auto reduce_fn = [&](const Key& /*key*/, std::span<BubbleCandidate> group,
                       std::vector<uint64_t>& pruned_out) {
    if (group.size() < 2) return;
    groups.fetch_add(1, std::memory_order_relaxed);
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
        if (!WithinEditDistance(a.seq, b.seq, edit_threshold)) continue;
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

  // No combiner: the pairwise edit-distance check needs every candidate's
  // full sequence in one group.
  Partitioned<uint64_t> pruned_parts =
      RunMapReduce<AsmNode, Key, BubbleCandidate, uint64_t>(
          input, map_fn, reduce_fn, MakeMrConfig(options, "bubble-filtering"),
          &result.stats);
  if (stats != nullptr) stats->Add(result.stats);
  result.candidate_groups = groups.load();

  // ---- Apply pruning: remove contig nodes and endpoint edges. -------------
  std::unordered_set<uint64_t> pruned_ids;
  for (const auto& part : pruned_parts) {
    pruned_ids.insert(part.begin(), part.end());
  }
  result.contigs_pruned = pruned_ids.size();
  for (uint64_t contig_id : pruned_ids) {
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
  graph.Compact();
  return result;
}

}  // namespace ppa
