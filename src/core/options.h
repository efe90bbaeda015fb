// Shared configuration for the assembly operations.
#ifndef PPA_CORE_OPTIONS_H_
#define PPA_CORE_OPTIONS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "pregel/mapreduce.h"
#include "spill/spill.h"
#include "util/logging.h"

namespace ppa {

class NetContext;  // net/coordinator.h

/// Configuration of the PPA-assembler pipeline. Defaults follow Sec. V:
/// k = 31, bubble edit-distance threshold 5, tip length threshold 80.
struct AssemblerOptions {
  int k = 31;                        // k-mer size; odd, <= 31.
  uint32_t coverage_threshold = 2;   // theta: min (k+1)-mer coverage kept.
  uint32_t tip_length_threshold = 80;
  uint32_t bubble_edit_distance = 5;
  uint32_t num_workers = 16;         // logical Pregel workers.
  unsigned num_threads = 0;          // OS threads; 0 = hardware concurrency.

  // (k+1)-mer counting (DBG construction phase (i), dbg/kmer_counter.h).
  uint32_t kmer_shards = 0;           // counting shards; 0 = auto (4x threads),
                                      // rounded up to a power of two and
                                      // capped at 1024.

  // Memory budget and external spill (spill/spill.h): ppa_assemble
  // --memory-budget-bytes/--spill-dir. A nonzero budget is the one memory
  // setting: it creates the run's spill context, under which the shuffle
  // keeps a sealed chunk in memory while it fits the budget and spills
  // the rest, the fleet's chunk journal charges the budget and sends its
  // overflow to the spill directory, and the counter's queued-byte bound
  // drops from 32 MB to min(32 MB, budget), floored at one chunk. The
  // counter never spills. spill_dir takes effect only with a budget. Every
  // budget produces bit-identical contigs.
  std::string spill_dir;             // parent directory; empty = system temp
  uint64_t memory_budget_bytes = 0;  // 0 = no budget: nothing spills

  // Runtime wiring: the per-run SpillContext every operation shares.
  // Assembler::Assemble (or any caller driving operations directly) sets
  // this from MakeSpillContext; leave null when nothing spills.
  SpillContext* spill_context = nullptr;

  // Distributed execution (net/): ppa_assemble --shard-workers/
  // --worker-endpoints. shard_workers spawns that many local
  // ppa_shard_worker processes; worker_endpoints connects to an
  // already-running fleet instead (and wins when both are set). The fleet
  // takes the counter's pass-2 shards; shuffle spill always stays on the
  // local spill directory. All configurations produce bit-identical
  // contigs.
  uint32_t shard_workers = 0;        // 0 = in-process (no fleet)
  std::string worker_endpoints;      // comma-separated specs, see net/wire.h
  std::string worker_binary;         // spawn override; empty = next to argv0
  int net_timeout_ms = 30000;        // connect/read/write timeout
  std::string fault_plan;            // deterministic fault script forwarded
                                     // to spawned workers (net/faultinject.h
                                     // grammar); empty = no faults

  // Runtime wiring: the per-run worker fleet, which Assembler::Assemble
  // sets up from the fields above; leave null for in-process runs.
  NetContext* net_context = nullptr;

  void Validate() const {
    PPA_CHECK(k >= 3 && k <= 31);
    PPA_CHECK(k % 2 == 1);  // Odd k rules out palindromic k-mers.
    PPA_CHECK(num_workers >= 1);
    PPA_CHECK(net_timeout_ms >= 0);
  }
};

/// The one place the assembly operations derive a MapReduceConfig from the
/// pipeline options, so num_workers / num_threads / the spill context
/// cannot drift between call sites.
inline MapReduceConfig MakeMrConfig(const AssemblerOptions& options,
                                    std::string job_name) {
  MapReduceConfig config;
  config.num_workers = options.num_workers;
  config.num_threads = options.num_threads;
  config.job_name = std::move(job_name);
  config.spill = options.spill_context;
  return config;
}

/// Aborts, naming both counts, unless the graph handed to `operation` has
/// `options.num_workers` partitions. Operations that walk the partitions
/// and size their jobs by `options.num_workers` would otherwise skip
/// partitions or read past the last one.
inline void CheckGraphWorkers(const char* operation, uint32_t graph_workers,
                              const AssemblerOptions& options) {
  if (graph_workers == options.num_workers) return;
  std::fprintf(stderr,
               "%s: the graph has %u workers but options.num_workers is %u\n",
               operation, graph_workers, options.num_workers);
  std::abort();
}

}  // namespace ppa

#endif  // PPA_CORE_OPTIONS_H_
