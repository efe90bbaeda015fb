// PPA-assembler public API: the operation pipeline of Fig. 10.
//
// The default workflow is the paper's evaluation workflow
//   (1) DBG construction  (2) contig labeling  (3) contig merging
//   (4) bubble filtering  (5) tip removing     (6) -> (2)(3) again,
// i.e. "to grow contigs once further after error correction" (Sec. V).
// Each operation is also exposed individually (dbg_construction.h,
// contig_labeling.h, contig_merging.h, bubble_filter.h, tip_removal.h) so
// users can assemble custom workflows, as the toolkit intends.
#ifndef PPA_CORE_ASSEMBLER_H_
#define PPA_CORE_ASSEMBLER_H_

#include <cstdint>
#include <vector>

#include "core/contig_labeling.h"
#include "core/dbg_construction.h"
#include "core/options.h"
#include "dbg/node.h"
#include "dna/read.h"
#include "dna/sequence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pregel/stats.h"

namespace ppa {

class ReadStream;  // io/read_stream.h

/// One assembled contig.
struct ContigRecord {
  uint64_t id = 0;
  PackedSequence seq;
  uint32_t coverage = 0;
  bool circular = false;
};

/// Full assembly output.
struct AssemblyResult {
  std::vector<ContigRecord> contigs;
  PipelineStats stats;
  KmerCountStats count_stats;  // phase (i) metrics (incl. streaming bounds)

  // Stage bookkeeping (ablations A1/A2 and EXPERIMENTS.md).
  uint64_t kmer_vertices = 0;          // DBG size after construction
  uint64_t vertices_after_round1 = 0;  // after first merge
  uint64_t vertices_after_round2 = 0;  // after second merge
  std::vector<size_t> round1_contig_lengths;
  uint64_t tips_removed = 0;
  uint64_t bubbles_pruned = 0;
  // Vertices list ranking left on cycles and labeled with the S-V fallback,
  // summed over both labeling rounds (0 under S-V labeling).
  uint64_t labeling_cycle_vertices = 0;
  // The process's peak RSS (obs::PeakRssKb) when DBG construction returned.
  uint64_t dbg_peak_rss_kb = 0;
  double wall_seconds = 0;

  // External spill (spill/spill.h): the run's budget and the pipeline-wide
  // high-water mark of resident chunk bytes tracked against it. Zero when
  // the run has no budget. Per-job spill volumes live in `stats`.
  uint64_t spill_budget_bytes = 0;
  uint64_t spill_peak_resident_bytes = 0;

  // Distributed runs: each shard worker's metrics registry, pulled over
  // the wire after the last data-plane frame. Empty for local runs (and
  // for workers whose pull failed — telemetry never fails a run).
  std::vector<obs::TelemetrySnapshot> worker_telemetry;

  // Distributed traced runs: each worker's span rings with its estimated
  // clock offset, for the merged WriteTraceJson timeline. Empty unless the
  // run traced (same best-effort contract as telemetry).
  std::vector<obs::ProcessTrace> worker_traces;

  /// Contig sequences as strings (reporting convenience).
  std::vector<std::string> ContigStrings() const {
    std::vector<std::string> out;
    out.reserve(contigs.size());
    for (const ContigRecord& c : contigs) out.push_back(c.seq.ToString());
    return out;
  }
};

/// The assembler facade.
class Assembler {
 public:
  explicit Assembler(AssemblerOptions options);

  /// Runs the default workflow on a streaming input, the one assembly
  /// body: wires the per-run spill and fleet contexts, then DBG
  /// construction consumes the ReadStream with bounded memory
  /// (io/read_stream.h + CounterSession), and every later operation works
  /// on the graph, which is already the compact representation.
  AssemblyResult Assemble(
      ReadStream& reads,
      LabelingMethod method = LabelingMethod::kListRanking) const;

  /// Adapter for reads already in memory: streams them through a
  /// VectorReadSource into the overload above.
  AssemblyResult Assemble(
      const std::vector<Read>& reads,
      LabelingMethod method = LabelingMethod::kListRanking) const;

  const AssemblerOptions& options() const { return options_; }

 private:
  /// Operations (2)..(6); appends to the PipelineStats BuildDbg already
  /// populated in `result`. `options` is the per-run copy carrying the
  /// spill wiring.
  void FinishAssembly(AssemblyResult* result, DbgResult dbg,
                      const AssemblerOptions& options,
                      LabelingMethod method) const;

  AssemblerOptions options_;
};

/// Extracts the contig vertices of an assembly graph (utility shared by the
/// assembler and the baselines).
std::vector<ContigRecord> CollectContigs(const AssemblyGraph& graph);

}  // namespace ppa

#endif  // PPA_CORE_ASSEMBLER_H_
