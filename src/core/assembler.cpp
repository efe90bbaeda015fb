#include "core/assembler.h"

#include <memory>
#include <utility>

#include "core/bubble_filter.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "net/coordinator.h"
#include "obs/report.h"
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

/// Wires the run's spill context into its options copy: under a nonzero
/// memory budget, unless the caller has injected a context already, one
/// context (temp dir, writer pool, budget) is created for the whole run and
/// every operation shares it through options->spill_context. The returned
/// guard owns it; the temp directory dies with the guard on every path.
std::unique_ptr<SpillContext> WireSpillContext(AssemblerOptions* options) {
  if (options->spill_context != nullptr) return nullptr;
  std::unique_ptr<SpillContext> context =
      MakeSpillContext(options->spill_dir, options->memory_budget_bytes);
  options->spill_context = context.get();
  return context;
}

/// Wires the run's worker fleet into its options copy: when distribution
/// is requested and no fleet was injected, the processes are
/// spawned/connected once for the whole run and every operation shares
/// them through options->net_context. The returned guard owns the fleet
/// (shutdown + reap on destruction). Throws std::runtime_error when the
/// fleet cannot be reached.
std::unique_ptr<NetContext> WireNetContext(AssemblerOptions* options) {
  if (options->net_context != nullptr ||
      (options->shard_workers == 0 && options->worker_endpoints.empty())) {
    return nullptr;
  }
  NetConfig config;
  config.spawn_workers = options->shard_workers;
  config.endpoints = options->worker_endpoints;
  config.worker_binary = options->worker_binary;
  config.io_timeout_ms = options->net_timeout_ms;
  config.connect_timeout_ms = options->net_timeout_ms;
  config.fault_plan = options->fault_plan;
  // When this run is tracing (--trace-out started a session before the
  // fleet is wired), ask the workers to arm their span rings too, so the
  // end-of-run pull can stitch one cross-process timeline.
  config.arm_trace = obs::TraceEnabled();
  std::unique_ptr<NetContext> context = MakeNetContext(config);
  options->net_context = context.get();
  return context;
}

void RecordSpillSummary(const AssemblerOptions& options,
                        AssemblyResult* result) {
  if (options.spill_context == nullptr) return;
  result->spill_budget_bytes = options.spill_context->budget.budget_bytes();
  result->spill_peak_resident_bytes =
      options.spill_context->budget.peak_resident_bytes();
}

}  // namespace

AssemblyResult Assembler::Assemble(ReadStream& reads,
                                   LabelingMethod method) const {
  Timer timer;
  AssemblyResult result;
  AssemblerOptions options = options_;
  std::unique_ptr<SpillContext> spill_guard = WireSpillContext(&options);
  std::unique_ptr<NetContext> net_guard = WireNetContext(&options);
  // ---- (1) DBG construction. ----------------------------------------------
  PPA_LOG(kInfo) << "k-mer counting: streaming sharded"
                 << " (threads=" << options.num_threads
                 << ", shards=" << options.kmer_shards << "; 0 = auto)";
  if (options.net_context != nullptr) {
    PPA_LOG(kInfo) << "distributed: " << options.net_context->description();
  }
  DbgResult dbg = [&] {
    PPA_TRACE_SPAN("dbg_construction", "phase");
    return BuildDbg(reads, options, &result.stats);
  }();
  result.dbg_peak_rss_kb = obs::PeakRssKb();
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

AssemblyResult Assembler::Assemble(const std::vector<Read>& reads,
                                   LabelingMethod method) const {
  ReadStream stream(std::make_unique<VectorReadSource>(reads));
  return Assemble(stream, method);
}

void Assembler::FinishAssembly(AssemblyResult* result_out, DbgResult dbg,
                               const AssemblerOptions& options,
                               LabelingMethod method) const {
  AssemblyResult& result = *result_out;
  std::vector<uint32_t> contig_ordinals(options.num_workers, 0);

  result.kmer_vertices = dbg.graph.live_size();
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
  result.labeling_cycle_vertices += labels1.num_cycle_vertices;
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
  {
    PPA_TRACE_SPAN("bubble_filtering", "phase");
    result.bubbles_pruned =
        FilterBubbles(graph, options, &result.stats).contigs_pruned;
  }
  {
    PPA_TRACE_SPAN("tip_removal", "phase");
    result.tips_removed =
        RemoveTips(graph, options, &result.stats).vertices_removed;
  }
  LabelingResult labels2 = [&] {
    PPA_TRACE_SPAN("contig_labeling", "phase");
    return LabelContigs(graph, options, method, &result.stats);
  }();
  result.labeling_cycle_vertices += labels2.num_cycle_vertices;
  {
    PPA_TRACE_SPAN("contig_merging", "phase");
    MergeContigs(graph, labels2, options, &contig_ordinals, &result.stats);
  }
  result.vertices_after_round2 = graph.live_size();
  PPA_LOG(kInfo) << "round 2: " << result.vertices_after_round2
                 << " vertices after merging";

  result.contigs = CollectContigs(graph);
}

}  // namespace ppa
