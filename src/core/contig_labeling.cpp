#include "core/contig_labeling.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/sv.h"
#include "pregel/engine.h"
#include "pregel/graph.h"

namespace ppa {

namespace {

struct LabelMessage {
  enum Type : uint8_t { kAmbiguousId = 0, kRequest = 1, kResponse = 2 };
  uint8_t type = 0;
  uint8_t slot = 0;    // Requester's predecessor slot (echoed in responses).
  uint64_t value = 0;  // kAmbiguousId/kRequest: sender id; kResponse: value.
};

/// Vertex of the labeling job. Supersteps 0-1 are end recognition; from
/// superstep 2 on, the LR protocol runs (method == kListRanking); for the
/// S-V method the job stops after end recognition and S-V runs as a
/// separate job over the recognized subgraph.
struct LabelVertex {
  using Message = LabelMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  bool ambiguous = false;
  bool run_lr = true;  // false: stop after end recognition.
  // Unambiguous vertices: the two port (5'/3') neighbors (kNullId = dead
  // end). Ambiguous vertices: their full broadcast target list.
  uint64_t nbr[2] = {kNullId, kNullId};
  std::vector<uint64_t> broadcast_targets;
  uint64_t pred[2] = {kNullId, kNullId};  // Predecessor-ID pair.
  uint32_t round_budget = 0;
  bool in_cycle = false;
  bool finished = false;

  bool SlotDone(int s) const { return HasEndMark(pred[s]); }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const LabelMessage> msgs) {
    const uint32_t step = ctx.superstep();
    if (ambiguous) {
      // Superstep 1 of the paper: broadcast own ID to all neighbors, then
      // vote to halt and "never be reactivated again" (stray wake-ups from
      // fellow ambiguous vertices are drained silently).
      if (step == 0) {
        for (uint64_t target : broadcast_targets) {
          ctx.SendTo(target,
                     LabelMessage{LabelMessage::kAmbiguousId, 0, id});
        }
      }
      ctx.VoteToHalt();
      return;
    }
    if (step == 0) return;  // Unambiguous vertices idle while ambiguous
                            // vertices broadcast.
    if (step == 1) {
      // End recognition: a side whose neighbor is absent or ambiguous
      // becomes a self-loop carrying this vertex's end-marked ID.
      for (int s = 0; s < 2; ++s) {
        bool end = (nbr[s] == kNullId);
        for (const LabelMessage& m : msgs) {
          if (m.type == LabelMessage::kAmbiguousId && m.value == nbr[s]) {
            end = true;
          }
        }
        pred[s] = end ? WithEndMark(id) : nbr[s];
      }
      round_budget = static_cast<uint32_t>(
                         std::ceil(std::log2(static_cast<double>(
                             std::max<uint64_t>(2, ctx.num_vertices()))))) +
                     2;
      if (!run_lr || (SlotDone(0) && SlotDone(1))) {
        finished = true;
        ctx.VoteToHalt();
      }
      return;
    }

    // ---- Bidirectional list ranking: one round = 2 supersteps. -----------
    // Even steps: apply responses, then send requests for unfinished slots;
    // odd steps: answer requests (reactivation keeps finished vertices
    // responsive).
    for (const LabelMessage& m : msgs) {
      if (m.type == LabelMessage::kResponse) pred[m.slot] = m.value;
    }
    for (const LabelMessage& m : msgs) {
      if (m.type == LabelMessage::kRequest) {
        // "Finds the predecessor that is not the received ID" — end marks
        // are ignored for the comparison.
        uint64_t reply =
            (ClearEndMark(pred[0]) == m.value) ? pred[1] : pred[0];
        ctx.SendTo(m.value,
                   LabelMessage{LabelMessage::kResponse, m.slot, reply});
      }
    }
    if (finished) {
      ctx.VoteToHalt();
      return;
    }
    if (step % 2 == 0) {
      if (SlotDone(0) && SlotDone(1)) {
        finished = true;
        ctx.VoteToHalt();
        return;
      }
      uint32_t round = (step - 2) / 2;
      if (round >= round_budget) {
        // Every non-cycle vertex finishes within ceil(log2 n) + 2 rounds;
        // leftovers lie on cycles and go to the S-V fallback.
        in_cycle = true;
        finished = true;
        ctx.VoteToHalt();
        return;
      }
      for (int s = 0; s < 2; ++s) {
        if (!SlotDone(s)) {
          ctx.SendTo(ClearEndMark(pred[s]),
                     LabelMessage{LabelMessage::kRequest,
                                  static_cast<uint8_t>(s), id});
        }
      }
    } else {
      // Odd step with no own work pending: halt until messaged again.
      ctx.VoteToHalt();
    }
  }
};

}  // namespace

LabelingResult LabelContigs(const AssemblyGraph& graph,
                            const AssemblerOptions& options,
                            LabelingMethod method, PipelineStats* stats) {
  LabelingResult result;
  const bool run_lr = (method == LabelingMethod::kListRanking);

  PartitionedGraph<LabelVertex> label_graph(graph.num_workers());
  graph.ForEach([&](const AsmNode& node) {
    LabelVertex v;
    v.id = node.id;
    v.run_lr = run_lr;
    v.ambiguous = !node.IsUnambiguousPathNode();
    if (v.ambiguous) {
      ++result.num_ambiguous;
      for (const BiEdge& e : node.edges) {
        if (e.to != kNullId && e.to != node.id) {
          v.broadcast_targets.push_back(e.to);
        }
      }
      std::sort(v.broadcast_targets.begin(), v.broadcast_targets.end());
      v.broadcast_targets.erase(std::unique(v.broadcast_targets.begin(),
                                            v.broadcast_targets.end()),
                                v.broadcast_targets.end());
    } else {
      ++result.num_unambiguous;
      const BiEdge* e5 = node.EdgeAt(NodeEnd::k5);
      const BiEdge* e3 = node.EdgeAt(NodeEnd::k3);
      v.nbr[0] = (e5 != nullptr) ? e5->to : kNullId;
      v.nbr[1] = (e3 != nullptr) ? e3->to : kNullId;
    }
    label_graph.Add(std::move(v));
  });

  EngineConfig config;
  config.num_threads = options.num_threads;
  config.job_name =
      std::string("contig-labeling-") + (run_lr ? "lr" : "sv-endrec");
  Engine<LabelVertex> engine(config);
  result.stats = engine.Run(label_graph);
  if (stats != nullptr) stats->Add(result.stats);

  if (run_lr) {
    // Collect labels; leftovers (cycles) go to S-V.
    std::vector<SvInput> cycle_inputs;
    label_graph.ForEach([&](const LabelVertex& v) {
      if (v.ambiguous) return;
      if (v.in_cycle) {
        SvInput in;
        in.id = v.id;
        for (int s = 0; s < 2; ++s) {
          if (v.nbr[s] != kNullId) in.neighbors.push_back(v.nbr[s]);
        }
        cycle_inputs.push_back(std::move(in));
        return;
      }
      uint64_t a = ClearEndMark(v.pred[0]);
      uint64_t b = ClearEndMark(v.pred[1]);
      // "We use the smaller contig-end vertex's ID as the contig-label."
      result.labels[v.id] = std::min(a, b);
    });
    result.num_cycle_vertices = cycle_inputs.size();
    if (!cycle_inputs.empty()) {
      SvResult sv =
          RunSimplifiedSv(cycle_inputs, options.num_workers,
                          options.num_threads, "contig-labeling-cycle-sv");
      result.cycle_sv_stats = sv.stats;
      if (stats != nullptr) stats->Add(sv.stats);
      for (const auto& [id, comp] : sv.component) result.labels[id] = comp;
    }
  } else {
    // S-V over the whole unambiguous subgraph: neighbors are the non-end
    // predecessor slots recognized in superstep 1.
    std::vector<SvInput> inputs;
    label_graph.ForEach([&](const LabelVertex& v) {
      if (v.ambiguous) return;
      SvInput in;
      in.id = v.id;
      for (int s = 0; s < 2; ++s) {
        if (!HasEndMark(v.pred[s])) in.neighbors.push_back(v.pred[s]);
      }
      inputs.push_back(std::move(in));
    });
    SvResult sv = RunSimplifiedSv(inputs, options.num_workers,
                                  options.num_threads, "contig-labeling-sv");
    result.cycle_sv_stats = sv.stats;
    if (stats != nullptr) stats->Add(sv.stats);
    for (const auto& [id, comp] : sv.component) {
      result.labels[id] = comp;
    }
    // Cycle detection for the S-V method: a component whose every member
    // has two path neighbors is a cycle; merging handles it via the
    // "no contig-end found" case, so no marking is needed here.
  }
  return result;
}

}  // namespace ppa
