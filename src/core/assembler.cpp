#include "core/assembler.h"

#include <memory>
#include <utility>

#include "core/bubble_filter.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "io/read_stream.h"
#include "net/coordinator.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ppa {

Assembler::Assembler(AssemblerOptions options) : options_(options) {
  options_.Validate();
}

std::vector<ContigRecord> CollectContigs(const AssemblyGraph& graph) {
  std::vector<ContigRecord> contigs;
  graph.ForEach([&](const AsmNode& node) {
    if (node.kind != NodeKind::kContig) return;
    ContigRecord rec;
    rec.id = node.id;
    rec.seq = node.seq;
    rec.coverage = node.coverage;
    rec.circular = node.circular;
    contigs.push_back(std::move(rec));
  });
  return contigs;
}

namespace {

void RecordSpillSummary(const AssemblerOptions& options,
                        AssemblyResult* result) {
  if (options.spill_context == nullptr) return;
  result->spill_budget_bytes = options.spill_context->budget.budget_bytes();
  result->spill_peak_resident_bytes =
      options.spill_context->budget.peak_resident_bytes();
}

}  // namespace

AssemblyResult Assembler::Assemble(const std::vector<Read>& reads,
                                   LabelingMethod method) const {
  return Run(options_.sharded_kmer_counting ? "sharded" : "serial",
             [&](const AssemblerOptions& options, PipelineStats* stats) {
               return BuildDbg(reads, options, stats);
             },
             method);
}

AssemblyResult Assembler::Assemble(ReadStream& reads,
                                   LabelingMethod method) const {
  return Run("streaming sharded",
             [&](const AssemblerOptions& options, PipelineStats* stats) {
               return BuildDbg(reads, options, stats);
             },
             method);
}

AssemblyResult Assembler::Run(const char* counting, const DbgStep& build_dbg,
                              LabelingMethod method) const {
  Timer timer;
  AssemblyResult result;
  AssemblerOptions options = options_;
  std::unique_ptr<SpillContext> spill_guard = WireSpillContext(&options);
  std::unique_ptr<NetContext> net_guard = WireNetContext(&options);
  // ---- (1) DBG construction. ----------------------------------------------
  PPA_LOG(kInfo) << "k-mer counting: " << counting
                 << " (threads=" << options.num_threads
                 << ", shards=" << options.kmer_shards
                 << ", queue_bytes=" << options.kmer_queue_bytes
                 << "; 0 = auto)"
                 << ", shuffle="
                 << ShuffleStrategyName(options.shuffle_strategy)
                 << ", spill=" << SpillModeName(options.spill_mode);
  if (options.net_context != nullptr) {
    PPA_LOG(kInfo) << "distributed: " << options.net_context->description();
  }
  DbgResult dbg = [&] {
    PPA_TRACE_SPAN("dbg_construction", "phase");
    return build_dbg(options, &result.stats);
  }();
  FinishAssembly(&result, std::move(dbg), options, method);
  RecordSpillSummary(options, &result);
  // Last, after all data-plane traffic, so the workers' numbers are final.
  if (options.net_context != nullptr) {
    result.worker_telemetry = options.net_context->CollectMetrics();
    result.worker_traces = options.net_context->CollectTraces();
  }
  result.wall_seconds = timer.Seconds();
  return result;
}

void Assembler::FinishAssembly(AssemblyResult* result_out, DbgResult dbg,
                               const AssemblerOptions& options,
                               LabelingMethod method) const {
  AssemblyResult& result = *result_out;
  std::vector<uint32_t> contig_ordinals(options.num_workers, 0);

  result.kmer_vertices = dbg.graph.live_size();
  result.packed_adjacency_bytes = dbg.packed_adjacency_bytes;
  result.unpacked_adjacency_bytes = dbg.unpacked_adjacency_bytes;
  result.count_stats = dbg.count_stats;
  AssemblyGraph& graph = dbg.graph;
  PPA_LOG(kInfo) << "DBG: " << result.kmer_vertices << " k-mer vertices, "
                 << dbg.surviving_edge_mers << "/" << dbg.distinct_edge_mers
                 << " (k+1)-mers kept";

  // ---- (2)+(3) label and merge unambiguous k-mers. ------------------------
  LabelingResult labels1 = [&] {
    PPA_TRACE_SPAN("contig_labeling", "phase");
    return LabelContigs(graph, options, method, &result.stats);
  }();
  {
    PPA_TRACE_SPAN("contig_merging", "phase");
    MergeContigs(graph, labels1, options, &contig_ordinals, &result.stats);
  }
  result.vertices_after_round1 = graph.live_size();
  for (const ContigRecord& c : CollectContigs(graph)) {
    result.round1_contig_lengths.push_back(c.seq.size());
  }
  PPA_LOG(kInfo) << "round 1: " << result.vertices_after_round1
                 << " vertices after merging";

  // ---- (4)(5)(6)(2)(3): error correction + one more merge round. ----------
  for (int round = 0; round < options.error_correction_rounds; ++round) {
    {
      PPA_TRACE_SPAN("bubble_filtering", "phase");
      BubbleResult bubbles = FilterBubbles(graph, options, &result.stats);
      result.bubbles_pruned += bubbles.contigs_pruned;
    }
    {
      PPA_TRACE_SPAN("tip_removal", "phase");
      TipResult tips = RemoveTips(graph, options, &result.stats);
      result.tips_removed += tips.vertices_removed;
    }
    LabelingResult labels2 = [&] {
      PPA_TRACE_SPAN("contig_labeling", "phase");
      return LabelContigs(graph, options, method, &result.stats);
    }();
    PPA_TRACE_SPAN("contig_merging", "phase");
    MergeContigs(graph, labels2, options, &contig_ordinals, &result.stats);
  }
  result.vertices_after_round2 = graph.live_size();
  PPA_LOG(kInfo) << "round 2: " << result.vertices_after_round2
                 << " vertices after merging";

  result.contigs = CollectContigs(graph);
}

}  // namespace ppa
