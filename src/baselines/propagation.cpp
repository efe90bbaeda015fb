#include "baselines/propagation.h"

#include <algorithm>
#include <span>
#include <vector>

#include "pregel/convert.h"
#include "pregel/engine.h"
#include "pregel/graph.h"

namespace ppa {

namespace {

struct ClaimMessage {
  enum Type : uint8_t { kBoundaryId = 0, kClaim = 1 };
  uint8_t type = 0;
  uint64_t value = 0;  // kBoundaryId: sender id; kClaim: label.
};

struct ClaimVertex {
  using Message = ClaimMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  bool boundary = false;  // ambiguous or baseline-specific stop vertex
  std::vector<uint64_t> broadcast_targets;  // boundary fan-out
  uint64_t nbr[2] = {kNullId, kNullId};
  bool is_end[2] = {false, false};
  uint64_t label = UINT64_MAX;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const ClaimMessage> msgs) {
    const uint32_t step = ctx.superstep();
    if (boundary) {
      if (step == 0) {
        for (uint64_t t : broadcast_targets) {
          ctx.SendTo(t, ClaimMessage{ClaimMessage::kBoundaryId, id});
        }
      }
      ctx.VoteToHalt();
      return;
    }
    if (step == 0) return;
    if (step == 1) {
      bool any_end = false;
      for (int s = 0; s < 2; ++s) {
        is_end[s] = (nbr[s] == kNullId);
        for (const ClaimMessage& m : msgs) {
          if (m.type == ClaimMessage::kBoundaryId && m.value == nbr[s]) {
            is_end[s] = true;
          }
        }
        any_end |= is_end[s];
      }
      if (any_end) {
        label = id;
        for (int s = 0; s < 2; ++s) {
          if (!is_end[s]) {
            ctx.SendTo(nbr[s], ClaimMessage{ClaimMessage::kClaim, label});
          }
        }
      }
      ctx.VoteToHalt();
      return;
    }
    // Claim relay: adopt the minimum label; forward improvements.
    uint64_t best = label;
    for (const ClaimMessage& m : msgs) {
      if (m.type == ClaimMessage::kClaim) best = std::min(best, m.value);
    }
    if (best < label) {
      label = best;
      for (int s = 0; s < 2; ++s) {
        if (!is_end[s] && nbr[s] != kNullId) {
          ctx.SendTo(nbr[s], ClaimMessage{ClaimMessage::kClaim, label});
        }
      }
    }
    ctx.VoteToHalt();
  }
};

}  // namespace

LabelingResult SequentialLabel(
    const AssemblyGraph& graph, const AssemblerOptions& options,
    const std::function<bool(const AsmNode&)>& extra_boundary,
    const std::string& job_name, PipelineStats* stats) {
  LabelingResult result;

  const uint32_t W = graph.num_workers();
  PartitionedGraph<ClaimVertex> claim_graph = MirrorGraph<ClaimVertex>(
      graph, options.num_threads,
      [&extra_boundary](const AsmNode& node, ClaimVertex* v) {
        v->boundary = !node.IsUnambiguousPathNode() ||
                      (extra_boundary && extra_boundary(node));
        if (v->boundary) {
          v->broadcast_targets = node.DistinctNeighbors();
        } else {
          v->nbr[0] = node.NeighborAt(NodeEnd::k5);
          v->nbr[1] = node.NeighborAt(NodeEnd::k3);
        }
      });
  // Broadcasts and claims are sent by id.
  CopyIndex(graph, &claim_graph);

  EngineConfig config;
  config.num_threads = options.num_threads;
  config.job_name = job_name;
  Engine<ClaimVertex> engine(config);
  result.stats = engine.Run(claim_graph);
  if (stats != nullptr) stats->Add(result.stats);

  result.labels.resize(W);
  for (uint32_t p = 0; p < W; ++p) {
    const std::vector<ClaimVertex>& vertices =
        claim_graph.partition(p).vertices;
    for (uint32_t slot = 0; slot < vertices.size(); ++slot) {
      const ClaimVertex& v = vertices[slot];
      if (v.removed) continue;
      if (v.boundary) {
        ++result.num_ambiguous;
        continue;
      }
      ++result.num_unambiguous;
      if (v.label == UINT64_MAX) continue;  // cycles: unlabeled
      result.labels[p].push_back(LabelEntry{v.label, p, slot});
    }
  }
  return result;
}

}  // namespace ppa
