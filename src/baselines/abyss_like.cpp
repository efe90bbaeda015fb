// ABySS-like baseline (see baselines/baseline.h).
#include <span>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "baselines/propagation.h"
#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_merging.h"
#include "core/tip_removal.h"
#include "dbg/adjacency.h"
#include "dbg/node.h"
#include "pregel/convert.h"
#include "pregel/engine.h"
#include "pregel/mapreduce.h"
#include "util/timer.h"

namespace ppa {

namespace {

/// Counts canonical k-mers (not (k+1)-mers: ABySS builds vertices first and
/// discovers edges by probing). Each occurrence ships one (code, 1) pair.
/// Returns (code, count) partitions.
Partitioned<std::pair<uint64_t, uint32_t>> CountKmers(
    const std::vector<Read>& reads, const AssemblerOptions& options,
    PipelineStats* stats) {
  Partitioned<Read> read_parts = Scatter(reads, options.num_workers);

  const int k = options.k;
  auto map_fn = [k](const Read& read, auto& emitter) {
    KmerWindow window(k);
    for (char c : read.bases) {
      int b = BaseFromChar(c);
      if (b < 0) {
        window.Reset();
        continue;
      }
      if (window.Push(static_cast<uint8_t>(b))) {
        emitter.Emit(window.Current().Canonical().code(), uint32_t{1});
      }
    }
  };
  const uint32_t threshold = options.coverage_threshold;
  auto reduce_fn = [threshold](const uint64_t& code,
                               std::span<uint32_t> counts,
                               std::vector<std::pair<uint64_t, uint32_t>>&
                                   out) {
    uint32_t total = 0;
    for (uint32_t c : counts) total += c;
    if (total >= threshold) out.emplace_back(code, total);
  };

  RunStats mr_stats;
  auto counted =
      RunMapReduce<Read, uint64_t, uint32_t,
                   std::pair<uint64_t, uint32_t>>(
          read_parts, map_fn, reduce_fn,
          MakeMrConfig(options, "abyss-kmer-counting"), &mr_stats);
  if (stats != nullptr) stats->Add(mr_stats);
  return counted;
}

struct ProbeMessage {
  enum Type : uint8_t { kProbe = 0, kAck = 1 };
  uint8_t type = 0;
  uint8_t item_byte = 0;  // Edge as seen from the *sender*.
  uint64_t from = 0;
  uint32_t coverage = 0;  // Sender's k-mer coverage.
};

/// The neighbor-probing vertex: "ABySS builds the DBG by letting each k-mer
/// send messages to its 8 possible neighbors (with A/T/G/C prepended /
/// appended) to establish edges" (Sec. V). An edge is created whenever both
/// endpoint k-mers exist, even if the connecting (k+1)-mer never occurred
/// in a read — which is how the spurious edges arise.
struct ProbeVertex {
  using Message = ProbeMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  uint8_t k = 0;
  uint32_t coverage = 0;
  std::vector<BiEdge> edges;

  void AddEdgeDedup(const BiEdge& e) {
    for (const BiEdge& existing : edges) {
      if (existing.to == e.to && existing.my_end == e.my_end &&
          existing.to_end == e.to_end) {
        return;
      }
    }
    edges.push_back(e);
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const ProbeMessage> msgs) {
    const uint32_t step = ctx.superstep();
    if (step == 0) {
      Kmer self(id, k);
      for (uint8_t out = 0; out < 2; ++out) {
        for (uint8_t base = 0; base < 4; ++base) {
          // Probe the edge where our side participates canonically (L);
          // Property 1 makes the H-side cases the same physical edges.
          AdjItem item{base, out, Side::kL, Side::kL};
          Kmer raw = out ? self.Append(base) : self.Prepend(base);
          item.other = raw.IsCanonical() ? Side::kL : Side::kH;
          uint64_t target = raw.Canonical().code();
          ctx.SendTo(target, ProbeMessage{ProbeMessage::kProbe,
                                          item.Encode(), id, coverage});
        }
      }
      ctx.VoteToHalt();
      return;
    }
    for (const ProbeMessage& m : msgs) {
      AdjItem item = AdjItem::Decode(m.item_byte);
      if (m.type == ProbeMessage::kProbe) {
        // We exist, so the edge exists: record it and ack the prober.
        BiEdge e;
        e.to = m.from;
        e.my_end = item.OtherEnd();   // Sender's item, our side = other.
        e.to_end = item.SelfEnd();
        e.coverage = std::min(coverage, m.coverage);
        AddEdgeDedup(e);
        ctx.SendTo(m.from, ProbeMessage{ProbeMessage::kAck, m.item_byte, id,
                                        coverage});
      } else {
        BiEdge e;
        e.to = m.from;
        e.my_end = item.SelfEnd();
        e.to_end = item.OtherEnd();
        e.coverage = std::min(coverage, m.coverage);
        AddEdgeDedup(e);
      }
    }
    ctx.VoteToHalt();
  }
};

/// Arbitrary-branch bubble popping: groups contigs by their ambiguous
/// endpoint pair and keeps only the smallest-id contig of each group —
/// without the coverage and edit-distance checks PPA-assembler applies.
/// This pops error bubbles about half the time onto the erroneous branch
/// (mismatches) and collapses genuine parallel repeat paths (lost genome
/// fraction).
void PopBubblesArbitrarily(AssemblyGraph& graph,
                           const AssemblerOptions& options,
                           PipelineStats* stats) {
  auto map_fn = [](const AsmNode* node, auto& emitter) {
    uint64_t nb1 = node->EdgeAt(NodeEnd::k5)->to;
    uint64_t nb2 = node->EdgeAt(NodeEnd::k3)->to;
    emitter.Emit(PairKey{std::min(nb1, nb2), std::max(nb1, nb2)}, node->id);
  };
  auto reduce_fn = [](const PairKey&, std::span<uint64_t> group,
                      std::vector<uint64_t>& pruned) {
    if (group.size() < 2) return;
    uint64_t keep = *std::min_element(group.begin(), group.end());
    for (uint64_t id : group) {
      if (id != keep) pruned.push_back(id);
    }
  };
  RunStats mr_stats;
  Partitioned<uint64_t> pruned =
      RunMapReduce<const AsmNode*, PairKey, uint64_t, uint64_t>(
          BubbleCandidates(graph), map_fn, reduce_fn,
          MakeMrConfig(options, "abyss-bubble-popping"), &mr_stats);
  if (stats != nullptr) stats->Add(mr_stats);
  RemoveContigs(graph, pruned);
}

}  // namespace

AssemblerRun RunAbyssLike(const std::vector<Read>& reads,
                          const AssemblerOptions& options) {
  Timer timer;
  AssemblerRun run;
  run.name = "ABySS";
  run.profile = AbyssProfile();

  // ---- Vertices from k-mer counting; edges from neighbor probing. --------
  auto kmer_counts = CountKmers(reads, options, &run.stats);
  PartitionedGraph<ProbeVertex> probe_graph(options.num_workers);
  for (const auto& part : kmer_counts) {
    for (const auto& [code, count] : part) {
      ProbeVertex v;
      v.id = code;
      v.k = static_cast<uint8_t>(options.k);
      v.coverage = count;
      probe_graph.Add(std::move(v));
    }
  }
  EngineConfig probe_config;
  probe_config.num_threads = options.num_threads;
  probe_config.job_name = "abyss-neighbor-probing";
  Engine<ProbeVertex> probe_engine(probe_config);
  run.stats.Add(probe_engine.Run(probe_graph));

  // The assembly graph takes over the probe job's vertices slot for slot.
  AssemblyGraph graph = MirrorGraph<AsmNode>(
      probe_graph, options.num_threads,
      [](const ProbeVertex& v, AsmNode* node) {
        node->k = v.k;
        node->coverage = v.coverage;
        node->edges = v.edges;
      });
  // Every later operation looks vertices up by id in the assembly graph.
  CopyIndex(probe_graph, &graph);

  // ---- Unitig extension by sequential propagation + merge. ----------------
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelingResult labels = SequentialLabel(graph, options, nullptr,
                                          "abyss-unitig-extension",
                                          &run.stats);
  MergeContigs(graph, labels, options, &ordinals, &run.stats);

  // ---- Error correction: short tip trim + arbitrary bubble popping. ------
  AssemblerOptions abyss_options = options;
  abyss_options.tip_length_threshold =
      static_cast<uint32_t>(2 * options.k);  // ABySS default trim length
  RemoveTips(graph, abyss_options, &run.stats);
  PopBubblesArbitrarily(graph, options, &run.stats);

  // ---- One more extension round (contig stage). ---------------------------
  LabelingResult labels2 = SequentialLabel(graph, options, nullptr,
                                           "abyss-contig-extension",
                                           &run.stats);
  MergeContigs(graph, labels2, options, &ordinals, &run.stats);

  for (const ContigRecord& c : CollectContigs(graph)) {
    run.contigs.push_back(c.seq.ToString());
  }
  run.wall_seconds = timer.Seconds();
  return run;
}

}  // namespace ppa
