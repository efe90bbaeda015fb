// Shared configuration for the assembly operations.
#ifndef PPA_CORE_OPTIONS_H_
#define PPA_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "dbg/kmer_counter.h"
#include "net/coordinator.h"
#include "obs/trace.h"
#include "pregel/mapreduce.h"
#include "spill/spill.h"
#include "util/logging.h"

namespace ppa {

/// Configuration of the PPA-assembler pipeline. Defaults follow Sec. V:
/// k = 31, bubble edit-distance threshold 5, tip length threshold 80.
struct AssemblerOptions {
  int k = 31;                        // k-mer size; odd, <= 31.
  uint32_t coverage_threshold = 2;   // theta: min (k+1)-mer coverage kept.
  uint32_t tip_length_threshold = 80;
  uint32_t bubble_edit_distance = 5;
  uint32_t num_workers = 16;         // logical Pregel workers.
  unsigned num_threads = 0;          // OS threads; 0 = hardware concurrency.
  int error_correction_rounds = 1;   // times operations 4,5 run (paper: 1).

  // (k+1)-mer counting (DBG construction phase (i), dbg/kmer_counter.h).
  bool sharded_kmer_counting = true;  // false = single-thread serial counter.
  uint32_t kmer_shards = 0;           // counting shards; 0 = auto (4x threads),
                                      // rounded up to a power of two and
                                      // capped at 1024.
  uint64_t kmer_queue_bytes = 0;      // streaming ingestion only: bound on
                                      // chunk bytes buffered between scanners
                                      // and shard counters (backpressure);
                                      // 0 = CounterSession default (32 MB).

  // MapReduce shuffle (every grouping operation: DBG construction phase
  // (ii), both contig-merging jobs, bubble filtering). kSort is the
  // reference path, set only by tests (shuffle_equivalence_test); both
  // produce bit-identical pipeline output.
  ShuffleStrategy shuffle_strategy = ShuffleStrategy::kHash;

  // External spill (spill/spill.h): ppa_assemble --spill-mode/--spill-dir/
  // --memory-budget-bytes. kNever keeps every chunk queue memory-resident
  // (the oracle path). kAuto: the counter keeps a chunk in its shard ring
  // while ring-resident bytes stay within half its queued-byte bound and
  // spills the rest to per-shard files; the shuffle spills its chunks
  // that exceed memory_budget_bytes. kAlways routes every sealed chunk
  // through disk. All modes produce bit-identical contigs.
  SpillMode spill_mode = SpillMode::kNever;
  std::string spill_dir;             // parent directory; empty = system temp
  uint64_t memory_budget_bytes = 0;  // 0 = no budget (queue bounds only)

  // Runtime wiring: the per-run SpillContext every operation shares.
  // Assembler::Assemble (or any caller driving operations directly) sets
  // this from MakeSpillContext; leave null for in-memory runs.
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
  uint64_t net_window_bytes = 8ULL << 20;  // per-worker unacked byte cap
  int net_timeout_ms = 30000;        // connect/read/write timeout
  std::string fault_plan;            // deterministic fault script forwarded
                                     // to spawned workers (net/faultinject.h
                                     // grammar); empty = no faults

  // Runtime wiring: the per-run worker fleet, set from WireNetContext;
  // leave null for in-process runs.
  NetContext* net_context = nullptr;

  void Validate() const {
    PPA_CHECK(k >= 3 && k <= 31);
    PPA_CHECK(k % 2 == 1);  // Odd k rules out palindromic k-mers.
    PPA_CHECK(num_workers >= 1);
    PPA_CHECK(net_timeout_ms >= 0);
  }
};

/// The one place a run's spill context is wired into its options copy:
/// when spilling is requested and the caller has not injected a context
/// already, one context (temp dir, writer pool, budget) is created for the
/// whole run and every operation shares it through options->spill_context.
/// The returned guard owns it; the temp directory dies with the guard on
/// every path. Used by Assembler::Assemble and the CLI's dbg-only branch —
/// keep them on this helper so wiring semantics cannot drift.
inline std::unique_ptr<SpillContext> WireSpillContext(
    AssemblerOptions* options) {
  if (options->spill_mode == SpillMode::kNever ||
      options->spill_context != nullptr) {
    return nullptr;
  }
  std::unique_ptr<SpillContext> context = MakeSpillContext(
      options->spill_mode, options->spill_dir, options->memory_budget_bytes);
  options->spill_context = context.get();
  return context;
}

/// The one place a run's worker fleet is wired into its options copy: when
/// distribution is requested and no fleet was injected, the processes are
/// spawned/connected once for the whole run and every operation shares
/// them through options->net_context. The returned guard owns the fleet
/// (shutdown + reap on destruction). Throws std::runtime_error when the
/// fleet cannot be reached. Mirrors WireSpillContext — keep both call sites
/// on these helpers.
inline std::unique_ptr<NetContext> WireNetContext(AssemblerOptions* options) {
  if (options->net_context != nullptr ||
      (options->shard_workers == 0 && options->worker_endpoints.empty())) {
    return nullptr;
  }
  NetConfig config;
  config.spawn_workers = options->shard_workers;
  config.endpoints = options->worker_endpoints;
  config.worker_binary = options->worker_binary;
  config.window_bytes = options->net_window_bytes;
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

/// The one place the assembly operations derive a MapReduceConfig from the
/// pipeline options, so num_workers / num_threads / shuffle_strategy cannot
/// drift between call sites.
inline MapReduceConfig MakeMrConfig(const AssemblerOptions& options,
                                    std::string job_name) {
  MapReduceConfig config;
  config.num_workers = options.num_workers;
  config.num_threads = options.num_threads;
  config.shuffle_strategy = options.shuffle_strategy;
  config.job_name = std::move(job_name);
  config.spill = options.spill_context;
  return config;
}

}  // namespace ppa

#endif  // PPA_CORE_OPTIONS_H_
