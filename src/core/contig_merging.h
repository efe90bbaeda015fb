// Operation 3: contig merging (Sec. IV.B-3).
//
// Groups labeled unambiguous vertices by contig label with a mini MapReduce
// job. The map reads each labeled vertex in place through its (partition,
// slot) label entry and ships one flat, trivially copyable record per path
// vertex: id, k-mer code (or, for a contig vertex, its slot, whose sequence
// the reducer reads from the graph), the two port edges and coverage. Each
// reducer sorts its group by id, locates a contig-end vertex (or, for
// cycles, starts at the smallest id), orders the vertices along the path by
// binary search and stitches their sequences with (k-1)-base overlap
// elision, reverse-complementing each vertex whose edge polarity requires
// it. The contig's coverage is the minimum coverage seen during
// concatenation; its two neighbors are the ambiguous vertices (or dead ends)
// at the path ends.
//
// Dangling contigs not longer than the tip-length threshold are dropped at
// merge time ("we exit reduce() if the aggregated contig length is not
// above the user-specified tip-length threshold").
//
// A second mini MapReduce job then delivers link notices to the ambiguous
// endpoint vertices — the in-memory analogue of the paper's two-superstep
// contig-information broadcast — replacing their stale edges into merged
// path vertices with edges to the new contig vertices. It ships one flat
// notice per linked contig end, with no combiner, and an endpoint applies
// its notices in (source, emit) order.
#ifndef PPA_CORE_CONTIG_MERGING_H_
#define PPA_CORE_CONTIG_MERGING_H_

#include <cstdint>
#include <vector>

#include "core/contig_labeling.h"
#include "core/options.h"
#include "dbg/node.h"
#include "pregel/stats.h"

namespace ppa {

/// Output of contig merging.
struct MergeResult {
  uint64_t contigs_created = 0;
  uint64_t nodes_merged = 0;
  uint64_t tips_dropped = 0;     // dangling short contigs dropped at merge
  uint64_t circular_contigs = 0;
  RunStats merge_stats;  // group-by-label MapReduce
  RunStats link_stats;   // link-notice MapReduce
};

/// Merges labeled vertices of `graph` into contig vertices, in place:
/// merged path nodes are removed, contig nodes are added, and ambiguous
/// endpoint vertices are re-linked. `labels` must come from labeling this
/// graph since its last modification, and the graph must have
/// `options.num_workers` partitions (aborts otherwise).
/// `next_contig_ordinal` (one counter per logical worker) persists across
/// merge rounds so contig IDs stay unique.
MergeResult MergeContigs(AssemblyGraph& graph, const LabelingResult& labels,
                         const AssemblerOptions& options,
                         std::vector<uint32_t>* next_contig_ordinal,
                         PipelineStats* stats = nullptr);

}  // namespace ppa

#endif  // PPA_CORE_CONTIG_MERGING_H_
