// Operation 2: contig labeling (Sec. IV.B-2).
//
// Marks every vertex on each maximal unambiguous path with a unique label so
// contig merging can group them. Two supersteps of contig-end recognition
// (ambiguous <m-n> vertices broadcast their IDs; <1>/<1-1> vertices that
// border an ambiguous vertex or a dead end replace that side's predecessor
// with their own end-marked ID) are followed by either:
//
//   * Bidirectional list ranking (the paper's preferred method): each
//     unambiguous vertex keeps a predecessor-ID pair, one per sequencing
//     direction; every 2-superstep round each unfinished slot jumps to its
//     predecessor's predecessor; slots finish when they hold an end-marked
//     ID. Cycles of <1-1> vertices can never finish; once the round budget
//     ceil(log2 n) + 2 is exhausted (by which time every non-cycle vertex
//     has provably finished) the leftovers are handed to the simplified S-V
//     algorithm, exactly the paper's hybrid. Labels: the smaller end-marked
//     ID for path contigs, the smallest vertex ID for cycle contigs.
//
//   * Simplified S-V over the whole unambiguous subgraph (baseline in
//     Tables II/III): label = smallest vertex ID in the component.
//
// The labeling job mirrors the assembly graph (pregel/convert.h), so a job
// slot is the graph slot and every send is addressed (pregel/engine.h).
// When the job is built, each unambiguous vertex seeds its predecessor pair
// with its port neighbors' ids and reads their slots from the graph's
// index, and each ambiguous vertex's distinct neighbors are resolved the
// same way to {id, slot} targets in one array per partition, which the
// vertex spans through the predecessor fields it does not use. So the job
// graph holds no id index, and a LabelVertex is 40 B. In LR, a request
// carries the requester's slot and a response the slot of the predecessor
// it names, both in the padding of the 16-byte message, so Tables II/III's
// byte counts are unchanged. The round budget ceil(log2 n) + 2 is a job
// constant, computed from the engine's vertex count.
//
// The S-V job's graph comes out of the pass that collects the labels: its
// partition p holds the vertices S-V labels (LR's cycle leftovers, or every
// unambiguous vertex) of graph partition p in slot order, each with its at
// most two neighbors as {id, graph slot}. A second pass turns each graph
// slot into an S-V slot through one graph-slot -> S-V-slot array per
// partition (allocated only for a partition with an S-V vertex), which also
// reads the labels back by slot, so the S-V job needs no id index.
#ifndef PPA_CORE_CONTIG_LABELING_H_
#define PPA_CORE_CONTIG_LABELING_H_

#include <cstdint>

#include "core/options.h"
#include "dbg/node.h"
#include "pregel/mapreduce.h"
#include "pregel/stats.h"

namespace ppa {

/// Which algorithm finds the maximal unambiguous paths.
enum class LabelingMethod {
  kListRanking = 0,   // Bidirectional list ranking (paper default).
  kSimplifiedSv = 1,  // Simplified S-V connected components.
};

inline const char* LabelingMethodName(LabelingMethod m) {
  return m == LabelingMethod::kListRanking ? "LR" : "S-V";
}

/// One labeled vertex: its contig label and the (partition, slot) the
/// vertex occupies in the assembly graph it was labeled on.
struct LabelEntry {
  uint64_t label = 0;
  uint32_t partition = 0;
  uint32_t slot = 0;
};

/// Labeling output.
struct LabelingResult {
  // One list per assembly-graph partition: labels[p] holds one entry per
  // labeled vertex of partition p, in slot order (LabelContigs labels
  // every unambiguous live vertex). The labeling job mirrors the graph
  // slot for slot (pregel/convert.h), so an entry's slot is both its job
  // slot and its graph slot. The slots stay valid until the graph is next
  // modified, so contig merging reads the labeled vertices in place
  // instead of looking up their ids.
  Partitioned<LabelEntry> labels;
  uint64_t num_unambiguous = 0;
  uint64_t num_ambiguous = 0;
  uint64_t num_cycle_vertices = 0;
  RunStats stats;  // Main labeling job (incl. end recognition).
  // The S-V job: for the LR method, the fallback over cycle leftovers (empty
  // when there were none); for the S-V method, its whole labeling job.
  RunStats cycle_sv_stats;

  /// Combined superstep/message totals (what Tables II/III report).
  uint32_t total_supersteps() const {
    return stats.num_supersteps() + cycle_sv_stats.num_supersteps();
  }
  uint64_t total_messages() const {
    return stats.total_messages() + cycle_sv_stats.total_messages();
  }
  double total_seconds() const {
    return stats.wall_seconds + cycle_sv_stats.wall_seconds;
  }
};

/// Labels every unambiguous live node of `graph` with its contig label;
/// removed nodes take no part. The graph itself is not modified; the result
/// has one label list per graph partition.
LabelingResult LabelContigs(const AssemblyGraph& graph,
                            const AssemblerOptions& options,
                            LabelingMethod method,
                            PipelineStats* stats = nullptr);

}  // namespace ppa

#endif  // PPA_CORE_CONTIG_LABELING_H_
