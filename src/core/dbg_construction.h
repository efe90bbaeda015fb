// Operation 1: DBG construction (Sec. IV.B-1).
//
// Two mini MapReduce phases:
//   Phase (i): reads are split at 'N' characters, each fragment is cut into
//   (k+1)-mers with a sliding window; (k+1)-mers are counted while the
//   reads stream in, by the two-pass sharded parallel counter
//   (dbg/kmer_counter.h CounterSession), and those with coverage below
//   coverage_threshold are filtered out as likely erroneous.
//   Phase (ii): each surviving (k+1)-mer emits one 8-byte (Fig. 8a bitmap
//   bit, coverage) entry to its canonical prefix k-mer vertex and one to
//   its canonical suffix k-mer vertex, with no combiner; the reducer sorts
//   a vertex's entries by bit and unpacks each into one bidirected edge.
//   Every (vertex, bit) comes from exactly one edge mer, so nothing is
//   merged and a graph holds 2 x surviving-mers edge records.
//
// (k+1)-mers are canonicalized before counting so that reads from the two
// strands contribute to the same edge (Sec. III "Directionality").
#ifndef PPA_CORE_DBG_CONSTRUCTION_H_
#define PPA_CORE_DBG_CONSTRUCTION_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "dbg/kmer_counter.h"
#include "dbg/node.h"
#include "dna/read.h"
#include "pregel/stats.h"

namespace ppa {

class ReadStream;  // io/read_stream.h

/// Output of DBG construction.
struct DbgResult {
  AssemblyGraph graph;            // k-mer nodes with unpacked bidirected edges
  uint64_t distinct_edge_mers = 0;   // distinct canonical (k+1)-mers seen
  uint64_t surviving_edge_mers = 0;  // after the coverage-threshold filter
  KmerCountStats count_stats;     // phase (i) execution metrics

  DbgResult() : graph(1) {}
  explicit DbgResult(uint32_t workers) : graph(workers) {}
};

/// Builds the de Bruijn graph from a bounded-memory ReadStream, counting
/// (k+1)-mers while scanning so the input is never fully resident; the
/// queued-byte bound is CounterSession's 32 MB, capped by the run's memory
/// budget when it has one.
/// Appends phase statistics to `stats` if non-null. Thread footprint:
/// num_threads scanner threads PLUS up to num_threads shard counter threads
/// (the overlap is the point) plus the stream's reader thread; counter
/// threads sleep whenever their queues are empty, so the steady-state CPU
/// load tracks whichever side is the bottleneck.
DbgResult BuildDbg(ReadStream& reads, const AssemblerOptions& options,
                   PipelineStats* stats = nullptr);

/// Adapter for reads already in memory: streams them through a
/// VectorReadSource into the overload above.
DbgResult BuildDbg(const std::vector<Read>& reads,
                   const AssemblerOptions& options,
                   PipelineStats* stats = nullptr);

}  // namespace ppa

#endif  // PPA_CORE_DBG_CONSTRUCTION_H_
