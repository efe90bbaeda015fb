// Extending the toolkit with a user-defined operation — the flexibility the
// paper advertises ("users may ... integrate new operations ... using
// Pregel+'s vertex-centric API").
//
//   $ ./example_custom_operation
//
// Implements *coverage-threshold pruning of bubbles* — one of the custom
// operations Sec. V suggests ("e.g., add coverage-threshold pruning to
// bubble filtering") — as a standalone Pregel job over the assembly graph,
// then plugs it into a custom workflow: (1)(2)(3)(custom)(5)(2)(3).
#include <cstdio>
#include <span>
#include <vector>

#include "core/assembler.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "pregel/convert.h"
#include "pregel/engine.h"
#include "quality/quast.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

namespace {

using namespace ppa;

// ----- The custom operation: absolute-coverage contig pruning. -------------
// Every contig whose coverage is below an absolute floor deletes itself and
// notifies its endpoints — a 2-superstep vertex-centric program written
// exactly like the built-in operations.
struct PruneMessage {
  uint64_t contig_id = 0;
  uint8_t my_end = 0;      // Receiver's end holding the edge.
  uint8_t contig_end = 0;  // Contig's end of that edge.
};

struct CoveragePruneVertex {
  using Message = PruneMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  bool is_contig = false;
  uint32_t coverage = 0;
  uint32_t floor = 0;
  std::vector<BiEdge> edges;
  std::vector<BiEdge> dropped;  // Applied back to the assembly graph.

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const PruneMessage> msgs) {
    if (ctx.superstep() == 0) {
      if (is_contig && coverage < floor) {
        for (const BiEdge& e : edges) {
          ctx.SendTo(e.to, PruneMessage{id, static_cast<uint8_t>(e.to_end),
                                        static_cast<uint8_t>(e.my_end)});
        }
        ctx.RemoveSelf();
        return;
      }
      ctx.VoteToHalt();
      return;
    }
    for (const PruneMessage& m : msgs) {
      for (size_t i = edges.size(); i > 0; --i) {
        const BiEdge& e = edges[i - 1];
        if (e.to == m.contig_id &&
            e.my_end == static_cast<NodeEnd>(m.my_end) &&
            e.to_end == static_cast<NodeEnd>(m.contig_end)) {
          dropped.push_back(e);
          edges.erase(edges.begin() + static_cast<long>(i - 1));
        }
      }
    }
    ctx.VoteToHalt();
  }
};

uint64_t PruneLowCoverageContigs(AssemblyGraph& graph, uint32_t floor,
                                 const AssemblerOptions& options) {
  // The job graph mirrors the assembly graph slot for slot, so results
  // are written back by slot.
  auto job = MirrorGraph<CoveragePruneVertex>(
      graph, options.num_threads,
      [floor](const AsmNode& node, CoveragePruneVertex* v) {
        v->is_contig = (node.kind == NodeKind::kContig);
        v->coverage = node.coverage;
        v->floor = floor;
        v->edges = node.edges;
      });
  // Prune notices are sent by id, so the job takes the graph's index.
  CopyIndex(graph, &job);
  EngineConfig config;
  config.num_threads = options.num_threads;
  config.job_name = "custom-coverage-pruning";
  Engine<CoveragePruneVertex> engine(config);
  engine.Run(job);

  uint64_t pruned = 0;
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    std::vector<AsmNode>& nodes = graph.partition(p).vertices;
    const std::vector<CoveragePruneVertex>& done = job.partition(p).vertices;
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      if (nodes[slot].removed) continue;
      if (done[slot].removed) {
        nodes[slot].removed = true;
        ++pruned;
        continue;
      }
      for (const BiEdge& e : done[slot].dropped) {
        nodes[slot].RemoveEdge(e.to, e.my_end, e.to_end);
      }
    }
  }
  graph.Compact();
  return pruned;
}

}  // namespace

int main() {
  GenomeConfig genome_config;
  genome_config.length = 80000;
  genome_config.repeat_families = 3;
  PackedSequence genome = GenerateGenome(genome_config);

  ReadSimConfig read_config;
  read_config.read_length = 100;
  read_config.coverage = 35;
  read_config.error_rate = 0.01;
  std::vector<Read> reads = SimulateReads(genome, read_config);

  AssemblerOptions options;
  options.k = 31;
  // Deliberately no (k+1)-mer coverage filtering: the custom operation
  // below does the error cleanup at contig granularity instead.
  options.coverage_threshold = 1;
  options.num_workers = 16;

  // ---- Custom workflow, operation by operation. ---------------------------
  DbgResult dbg = BuildDbg(reads, options);
  AssemblyGraph& graph = dbg.graph;
  std::printf("(1) DBG construction: %zu k-mer vertices\n",
              graph.live_size());

  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelingResult labels =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, labels, options, &ordinals);
  std::printf("(2)+(3) label & merge: %zu vertices remain\n",
              graph.live_size());

  uint64_t pruned = PruneLowCoverageContigs(graph, /*floor=*/4, options);
  std::printf("(custom) coverage pruning: %llu low-coverage contigs dropped\n",
              static_cast<unsigned long long>(pruned));

  TipResult tips = RemoveTips(graph, options);
  std::printf("(5) tip removing: %llu vertices removed\n",
              static_cast<unsigned long long>(tips.vertices_removed));

  LabelingResult relabel =
      LabelContigs(graph, options, LabelingMethod::kListRanking);
  MergeContigs(graph, relabel, options, &ordinals);
  std::printf("(2)+(3) regrow: %zu vertices remain\n", graph.live_size());

  std::vector<std::string> contigs;
  for (const ContigRecord& c : CollectContigs(graph)) {
    contigs.push_back(c.seq.ToString());
  }
  QuastReport report = EvaluateAssembly(contigs, &genome);
  std::printf("\nQuality of the custom workflow:\n%s",
              FormatReport(report).c_str());
  return 0;
}
