// Operation 4: bubble filtering (Sec. IV.B-4).
//
// A bubble is a set of contigs that share both ambiguous endpoint vertices.
// Each contig whose two neighbors nb1 < nb2 are both ambiguous keys itself
// by (nb1, nb2) in a mini MapReduce job; the reducer compares each contig
// pair (orienting one of them by reverse complement when their directions
// disagree) and, when the edit distance is below the configured threshold,
// prunes the lower-coverage contig. Pruned contigs are removed from the
// graph and their endpoint vertices drop the corresponding edges — which
// may turn <m-n> vertices into <1-1> or <1>, enabling further merging.
//
// The map reads each candidate contig in place through a pointer into the
// graph and ships a flat record: id, slot, coverage, the endpoints'
// attachment ends and whether the contig reads from nb2 to nb1. The graph
// stays unmodified until the job ends, so the reducer reads and orients
// the sequences of the groups with two or more members from it;
// RemoveContigs then applies the pruning. ABySS-like arbitrary bubble
// popping (baselines/abyss_like.cpp) shares both steps.
//
// Beyond the paper's key: endpoints must also attach at the same vertex
// *ends* for two contigs to be parallel paths; the reducer checks this,
// since contigs touching the same vertices at opposite ends are not
// bubbles.
#ifndef PPA_CORE_BUBBLE_FILTER_H_
#define PPA_CORE_BUBBLE_FILTER_H_

#include <cstdint>

#include "core/options.h"
#include "dbg/node.h"
#include "pregel/mapreduce.h"
#include "pregel/stats.h"

namespace ppa {

/// Output of bubble filtering.
struct BubbleResult {
  uint64_t candidate_groups = 0;  // (nb1, nb2) groups with >= 2 contigs
  uint64_t contigs_pruned = 0;
  RunStats stats;
};

/// The bubble candidates of `graph`, per partition in slot order: its live
/// contig vertices with one edge at each end. The pointers stay valid until
/// the graph is next modified.
Partitioned<const AsmNode*> BubbleCandidates(const AssemblyGraph& graph);

/// Removes the contig vertices named in `contig_ids`, and their endpoints'
/// edges into them, then compacts the graph. Ids of absent or removed
/// vertices are skipped.
void RemoveContigs(AssemblyGraph& graph,
                   const Partitioned<uint64_t>& contig_ids);

/// Filters bubbles among the contig vertices of `graph`, in place. The
/// graph must have `options.num_workers` partitions (aborts otherwise).
BubbleResult FilterBubbles(AssemblyGraph& graph,
                           const AssemblerOptions& options,
                           PipelineStats* stats = nullptr);

}  // namespace ppa

#endif  // PPA_CORE_BUBBLE_FILTER_H_
