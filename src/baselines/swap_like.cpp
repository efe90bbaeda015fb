// SWAP-like baseline (see baselines/baseline.h).
#include <span>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "core/assembler.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "pregel/convert.h"
#include "pregel/engine.h"
#include "util/timer.h"

namespace ppa {

namespace {

struct PruneMessage {
  uint64_t from = 0;
  uint8_t from_end = 0;  // Sender's end of the dropped edge.
  uint8_t my_end = 0;    // Receiver's end of the dropped edge.
};

/// Up-front greedy branch resolution: every branching end keeps only its
/// highest-coverage edge (ties broken by neighbor id) and drops the rest,
/// turning the vertex unambiguous. At repeat junctions, where the parallel
/// branches have near-equal coverage, this picks an arbitrary continuation
/// and merges straight through the repeat boundary — the root of SWAP's
/// misassembly-heavy profile in Table IV.
struct PruneVertex {
  using Message = PruneMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<BiEdge> edges;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const PruneMessage> msgs) {
    if (ctx.superstep() == 0) {
      for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
        const BiEdge* best = nullptr;
        int count = 0;
        for (const BiEdge& e : edges) {
          if (e.my_end != end) continue;
          ++count;
          if (best == nullptr || e.coverage > best->coverage ||
              (e.coverage == best->coverage && e.to < best->to)) {
            best = &e;
          }
        }
        if (count < 2) continue;
        const BiEdge kept = *best;
        for (size_t i = edges.size(); i > 0; --i) {
          const BiEdge e = edges[i - 1];
          if (e.my_end != end ||
              (e.to == kept.to && e.to_end == kept.to_end &&
               e.coverage == kept.coverage)) {
            continue;
          }
          edges.erase(edges.begin() + static_cast<long>(i - 1));
          ctx.SendTo(e.to,
                     PruneMessage{id, static_cast<uint8_t>(e.my_end),
                                  static_cast<uint8_t>(e.to_end)});
        }
      }
      ctx.VoteToHalt();
      return;
    }
    for (const PruneMessage& m : msgs) {
      for (size_t i = edges.size(); i > 0; --i) {
        const BiEdge& e = edges[i - 1];
        if (e.to == m.from &&
            e.my_end == static_cast<NodeEnd>(m.my_end) &&
            e.to_end == static_cast<NodeEnd>(m.from_end)) {
          edges.erase(edges.begin() + static_cast<long>(i - 1));
        }
      }
    }
    ctx.VoteToHalt();
  }
};

void PruneMinorityEdges(AssemblyGraph& graph,
                        const AssemblerOptions& options,
                        PipelineStats* stats) {
  PartitionedGraph<PruneVertex> prune_graph = MirrorGraph<PruneVertex>(
      graph, options.num_threads,
      [](const AsmNode& node, PruneVertex* v) { v->edges = node.edges; });
  CopyIndex(graph, &prune_graph);  // Prune notices are sent by id.
  EngineConfig config;
  config.num_threads = options.num_threads;
  config.job_name = "swap-branch-resolution";
  Engine<PruneVertex> engine(config);
  RunStats run_stats = engine.Run(prune_graph);
  if (stats != nullptr) stats->Add(run_stats);
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    std::vector<AsmNode>& nodes = graph.partition(p).vertices;
    std::vector<PruneVertex>& pruned = prune_graph.partition(p).vertices;
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      if (nodes[slot].removed) continue;
      nodes[slot].edges = std::move(pruned[slot].edges);
    }
  }
}

}  // namespace

AssemblerRun RunSwapLike(const std::vector<Read>& reads,
                         const AssemblerOptions& options) {
  Timer timer;
  AssemblerRun run;
  run.name = "SWAP-Assembler";
  run.profile = SwapProfile();

  DbgResult dbg = BuildDbg(reads, options, &run.stats);
  AssemblyGraph& graph = dbg.graph;

  // Aggressive up-front branch resolution.
  PruneMinorityEdges(graph, options, &run.stats);

  // SWAP's multi-step edge-merging strategy costs a constant number of
  // supersteps per contraction round, like S-V; we therefore label with the
  // simplified S-V algorithm, whose measured profile matches that shape.
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelingResult labels = LabelContigs(graph, options,
                                       LabelingMethod::kSimplifiedSv,
                                       &run.stats);
  MergeContigs(graph, labels, options, &ordinals, &run.stats);

  // Short tip trim; no bubble filtering in SWAP.
  AssemblerOptions swap_options = options;
  swap_options.tip_length_threshold = static_cast<uint32_t>(options.k);
  RemoveTips(graph, swap_options, &run.stats);

  for (const ContigRecord& c : CollectContigs(graph)) {
    run.contigs.push_back(c.seq.ToString());
  }
  run.wall_seconds = timer.Seconds();
  return run;
}

}  // namespace ppa
