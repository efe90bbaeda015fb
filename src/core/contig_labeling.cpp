#include "core/contig_labeling.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sv.h"
#include "pregel/convert.h"
#include "pregel/engine.h"
#include "pregel/graph.h"
#include "util/thread_pool.h"

namespace ppa {

namespace {

// LR requests and responses are addressed: a request carries the
// requester's slot, and a response carries the slot of the predecessor it
// names, so every LR send after superstep 0 passes the receiver's slot.
struct LabelMessage {
  enum Type : uint8_t { kAmbiguousId = 0, kRequest = 1, kResponse = 2 };
  uint8_t type = 0;
  uint8_t side = 0;    // Requester's predecessor side (echoed in responses).
  uint32_t slot = 0;   // kRequest: requester's slot; kResponse: value's slot.
  uint64_t value = 0;  // kAmbiguousId/kRequest: sender id; kResponse: value.
};
// Tables II/III count message bytes, so a new field must fit the padding.
static_assert(sizeof(LabelMessage) == 16);

// An ambiguous vertex's superstep-0 broadcast target: a distinct neighbor
// and its slot in its own partition, read from the assembly graph's index
// when the job is built (a job slot is the graph slot).
struct LabelTarget {
  uint64_t id = 0;
  uint32_t slot = 0;
};

// ceil(log2 n) + 2, the LR round budget for a graph of n vertices:
// bit_width(n - 1) == ceil(log2 n) for every n >= 2.
uint32_t RoundBudget(uint64_t n) {
  return static_cast<uint32_t>(std::bit_width(std::max<uint64_t>(2, n) - 1)) +
         2;
}

/// Vertex of the labeling job. Supersteps 0-1 are end recognition; from
/// superstep 2 on, the LR protocol runs (method == kListRanking); for the
/// S-V method the job stops after end recognition and S-V runs as a
/// separate job over the recognized subgraph.
struct LabelVertex {
  using Message = LabelMessage;

  uint64_t id = 0;
  // Unambiguous vertices: the predecessor-ID pair, one per port (5'/3'),
  // seeded with the port neighbors (kNullId = dead end), and the slot of
  // each predecessor in its partition. Ambiguous vertices use neither, and
  // keep the span of their broadcast targets there instead (SetTargets).
  uint64_t pred[2] = {kNullId, kNullId};
  uint32_t pred_slot[2] = {IdSlotIndex::kAbsent, IdSlotIndex::kAbsent};
  bool halted = false;
  bool removed = false;
  bool ambiguous = false;
  bool run_lr = true;  // false: stop after end recognition.
  bool in_cycle = false;
  bool finished = false;

  bool SlotDone(int s) const { return HasEndMark(pred[s]); }

  /// Marks the vertex ambiguous, with broadcast targets [begin, end) of
  /// `array`, its partition's target array, which outlives the job and
  /// may still grow: pred[0] holds the array's address, pred_slot the
  /// bounds.
  void SetTargets(const std::vector<LabelTarget>* array, uint32_t begin,
                  uint32_t end) {
    ambiguous = true;
    pred[0] = reinterpret_cast<uintptr_t>(array);
    pred_slot[0] = begin;
    pred_slot[1] = end;
  }

  std::span<const LabelTarget> targets() const {
    const auto* array =
        reinterpret_cast<const std::vector<LabelTarget>*>(pred[0]);
    return std::span<const LabelTarget>(*array).subspan(
        pred_slot[0], pred_slot[1] - pred_slot[0]);
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const LabelMessage> msgs) {
    const uint32_t step = ctx.superstep();
    if (ambiguous) {
      // Superstep 1 of the paper: broadcast own ID to all neighbors, then
      // vote to halt and "never be reactivated again" (stray wake-ups from
      // fellow ambiguous vertices are drained silently).
      if (step == 0) {
        for (const LabelTarget& t : targets()) {
          ctx.SendTo(t.id, t.slot,
                     LabelMessage{LabelMessage::kAmbiguousId, 0, 0, id});
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
        bool end = (pred[s] == kNullId);
        for (const LabelMessage& m : msgs) {
          if (m.type == LabelMessage::kAmbiguousId && m.value == pred[s]) {
            end = true;
          }
        }
        if (end) {
          pred[s] = WithEndMark(id);
          pred_slot[s] = ctx.slot();
        }
      }
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
      if (m.type == LabelMessage::kResponse) {
        pred[m.side] = m.value;
        pred_slot[m.side] = m.slot;
      }
    }
    for (const LabelMessage& m : msgs) {
      if (m.type == LabelMessage::kRequest) {
        // "Finds the predecessor that is not the received ID" — end marks
        // are ignored for the comparison.
        const int s = (ClearEndMark(pred[0]) == m.value) ? 1 : 0;
        ctx.SendTo(m.value, m.slot,
                   LabelMessage{LabelMessage::kResponse, m.side,
                                pred_slot[s], pred[s]});
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
      const uint32_t round = (step - 2) / 2;
      if (round >= RoundBudget(ctx.num_vertices())) {
        // Every non-cycle vertex finishes within ceil(log2 n) + 2 rounds;
        // leftovers lie on cycles and go to the S-V fallback.
        in_cycle = true;
        finished = true;
        ctx.VoteToHalt();
        return;
      }
      for (int s = 0; s < 2; ++s) {
        if (!SlotDone(s)) {
          ctx.SendTo(pred[s], pred_slot[s],
                     LabelMessage{LabelMessage::kRequest,
                                  static_cast<uint8_t>(s), ctx.slot(), id});
        }
      }
    } else {
      // Odd step with no own work pending: halt until messaged again.
      ctx.VoteToHalt();
    }
  }
};
// One per graph slot; the round-1 label job sets the run's memory peak on
// inputs where counting does not.
static_assert(sizeof(LabelVertex) <= 40);
static_assert(sizeof(uintptr_t) <= sizeof(uint64_t));

}  // namespace

LabelingResult LabelContigs(const AssemblyGraph& graph,
                            const AssemblerOptions& options,
                            LabelingMethod method, PipelineStats* stats) {
  LabelingResult result;
  const bool run_lr = (method == LabelingMethod::kListRanking);
  const uint32_t W = graph.num_workers();
  ThreadPool pool(options.num_threads);

  // The S-V job's graph (LR: the cycle leftovers; S-V: every unambiguous
  // vertex): its partition p holds the S-V-labeled vertices of graph
  // partition p in slot order, and sv_slot[p] maps each graph slot of p to
  // its S-V slot (kAbsent: not labeled by S-V; empty: p has no S-V vertex).
  PartitionedGraph<SvVertex> sv_graph(W);
  std::vector<std::vector<uint32_t>> sv_slot(W);
  result.labels.resize(W);
  {
    // A job slot is the graph slot, so the graph's index gives each port
    // neighbor's and each broadcast target's slot, and the job graph needs
    // no index. targets[p] holds the broadcast targets of partition p's
    // ambiguous vertices, appended by p's MirrorGraph task in slot order.
    auto slot_of = [&graph, W](uint64_t id) {
      return graph.partition(PartitionOf(id, W)).index.Find(id);
    };
    std::vector<std::vector<LabelTarget>> targets(W);
    PartitionedGraph<LabelVertex> label_graph = MirrorGraph<LabelVertex>(
        graph, options.num_threads,
        [&slot_of, &targets, run_lr, W](const AsmNode& node, LabelVertex* v) {
          v->run_lr = run_lr;
          if (!node.IsUnambiguousPathNode()) {
            std::vector<LabelTarget>& array = targets[PartitionOf(node.id, W)];
            const auto begin = static_cast<uint32_t>(array.size());
            for (uint64_t nbr : node.DistinctNeighbors()) {
              array.push_back(LabelTarget{nbr, slot_of(nbr)});
            }
            v->SetTargets(&array, begin, static_cast<uint32_t>(array.size()));
            return;
          }
          for (int s = 0; s < 2; ++s) {
            const uint64_t nbr =
                node.NeighborAt(s == 0 ? NodeEnd::k5 : NodeEnd::k3);
            if (nbr == kNullId) continue;
            v->pred[s] = nbr;
            v->pred_slot[s] = slot_of(nbr);
          }
        });

    EngineConfig config;
    config.num_threads = options.num_threads;
    config.job_name =
        std::string("contig-labeling-") + (run_lr ? "lr" : "sv-endrec");
    Engine<LabelVertex> engine(config);
    result.stats = engine.Run(label_graph);
    if (stats != nullptr) stats->Add(result.stats);

    // Collect the labels by slot. A vertex left to S-V gets an entry whose
    // label S-V fills in, and an S-V vertex whose neighbors are, under LR,
    // its two port neighbors, read from the graph, and under S-V the non-end
    // predecessors recognized in superstep 1; each neighbor's slot is its
    // graph slot until the next pass maps it.
    std::vector<uint64_t> ambiguous(W, 0);
    pool.Run(W, [&](uint32_t p) {
      const std::vector<LabelVertex>& vertices =
          label_graph.partition(p).vertices;
      std::vector<LabelEntry>& entries = result.labels[p];
      std::vector<SvVertex>& sv_vertices = sv_graph.partition(p).vertices;
      entries.reserve(vertices.size());
      if (!run_lr) sv_vertices.reserve(vertices.size());
      for (uint32_t slot = 0; slot < vertices.size(); ++slot) {
        const LabelVertex& v = vertices[slot];
        if (v.removed) continue;
        if (v.ambiguous) {
          ++ambiguous[p];
          continue;
        }
        LabelEntry entry{0, p, slot};
        if (run_lr && !v.in_cycle) {
          // "We use the smaller contig-end vertex's ID as the
          // contig-label."
          entry.label =
              std::min(ClearEndMark(v.pred[0]), ClearEndMark(v.pred[1]));
        } else {
          if (sv_slot[p].empty()) {
            sv_slot[p].assign(vertices.size(), IdSlotIndex::kAbsent);
          }
          sv_slot[p][slot] = static_cast<uint32_t>(sv_vertices.size());
          SvVertex& sv = sv_vertices.emplace_back();
          sv.id = v.id;
          const AsmNode& node = graph.partition(p).vertices[slot];
          for (int s = 0; s < 2; ++s) {
            if (run_lr) {
              const uint64_t nbr =
                  node.NeighborAt(s == 0 ? NodeEnd::k5 : NodeEnd::k3);
              if (nbr == kNullId) continue;
              sv.AddNeighbor(nbr, slot_of(nbr));
            } else if (!HasEndMark(v.pred[s])) {
              // Superstep 1 end-marked every dead-end (kNullId) side.
              sv.AddNeighbor(v.pred[s], v.pred_slot[s]);
            }
          }
        }
        entries.push_back(entry);
      }
    });
    for (uint32_t p = 0; p < W; ++p) {
      result.num_ambiguous += ambiguous[p];
      result.num_unambiguous += result.labels[p].size();
    }
  }  // The label graph is freed before S-V runs.

  if (run_lr) {
    result.num_cycle_vertices = sv_graph.size();
    if (result.num_cycle_vertices == 0) return result;
  }
  // Map each neighbor's graph slot to its S-V slot. Every map is complete,
  // so a task reads any partition's map and writes only its own vertices.
  pool.Run(W, [&](uint32_t p) {
    for (SvVertex& v : sv_graph.partition(p).vertices) {
      for (uint8_t i = 0; i < v.num_neighbors; ++i) {
        const std::vector<uint32_t>& to =
            sv_slot[PartitionOf(v.neighbor[i], W)];
        uint32_t& slot = v.neighbor_slot[i];
        slot = slot < to.size() ? to[slot] : IdSlotIndex::kAbsent;
      }
    }
  });
  // LR: cycle leftovers. S-V: the whole unambiguous subgraph (a component
  // whose every member has two path neighbors is a cycle; merging handles
  // it via the "no contig-end found" case, so no marking is needed).
  result.cycle_sv_stats = RunSimplifiedSv(
      sv_graph, options.num_threads,
      run_lr ? "contig-labeling-cycle-sv" : "contig-labeling-sv");
  if (stats != nullptr) stats->Add(result.cycle_sv_stats);
  // Each S-V vertex's D[v] is its entry's label.
  pool.Run(W, [&](uint32_t p) {
    if (sv_slot[p].empty()) return;
    const std::vector<SvVertex>& sv_vertices = sv_graph.partition(p).vertices;
    for (LabelEntry& entry : result.labels[p]) {
      const uint32_t s = sv_slot[p][entry.slot];
      if (s != IdSlotIndex::kAbsent) entry.label = sv_vertices[s].d;
    }
  });
  return result;
}

}  // namespace ppa
