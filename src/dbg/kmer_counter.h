// Sharded multi-threaded canonical k-mer counting.
//
// The dominant cost of DBG construction (Sec. IV.B-1 phase (i)) is counting
// canonical (k+1)-mers over all reads. The seed implementation counted into
// per-logical-worker std::unordered_maps; this subsystem replaces it with
// the two-pass sharded design proven in k-mer tools such as yak:
//
//   Pass 1 (partition): scanner threads classify each read's bases, cut
//   the read into per-shard chunks and hand each full chunk to one byte
//   admission (a CAS on the session's queued-byte counter), then to the
//   shard's route — once per tens of kilobytes, so the per-base hot path
//   takes no locks and shares no cache lines between threads. A chunk
//   holds minimizer-bucketed super-k-mers — maximal runs of consecutive
//   windows sharing one Mix64-ordered minimizer, shipped as 2-bit-packed
//   bases behind a varint length (dna/superkmer.h). Shard = high bits of a
//   re-mixed minimizer hash, Mix64(Mix64(minimizer)): the ordering key
//   Mix64(minimizer) is a window minimum whose high bits lean toward zero,
//   so routing by it sends most windows to shard 0. Strand-invariant
//   minimizers guarantee every occurrence of a canonical mer lands in the
//   same shard. A run of w windows costs ~(w + L - 1)/4 + 1 bytes instead
//   of 8w for one code per window.
//
//   Pass 2 (count): each shard owns a disjoint slice of mer space, so the
//   shards are counted fully independently in parallel, one FlatTable
//   (util/flat_table.h) per shard. ShardCounterBank is the one place a
//   chunk becomes table counts: counter threads drain the shards' lock-free
//   rings into a local session's bank *while* the scanners are still
//   producing, and shard workers (net/worker.h) and a degraded fleet
//   (net/fleet_counter.h) count serialized chunks through the same
//   decoder. No atomics, no merging of tables.
//
// Survivors of the coverage filter are routed into `num_workers` output
// partitions by PartitionOf(code, num_workers), the graph's partitioner, so
// downstream phase (ii) MapReduce consumes the result unchanged,
// bit-identical to CountCanonicalMersSerial, the one counting oracle.
//
// CounterSession is the one sharded counter; the batch CountCanonicalMers
// feeds one from a thread pool. The queued *bytes* are bounded: a scanner
// flushing past the bound blocks until the counters (or the remote
// workers' acks) catch up — backpressure that propagates through
// ReadStream to the input file. Peak transient memory is the
// configured byte bound plus the tables: a table slot is an 8-byte key
// plus a 4-byte count, and a table doubles when an insert would pass 85%
// load, so after its first doubling the load stays in (0.425, 0.85] — 14
// to 28 bytes per distinct mer — over a floor of 2048 slots (24 KiB) per
// shard. KmerCountStats::table_bytes reports the slot bytes the tables
// ended with.
#ifndef PPA_DBG_KMER_COUNTER_H_
#define PPA_DBG_KMER_COUNTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dna/read.h"
#include "pregel/mapreduce.h"
#include "pregel/stats.h"

namespace ppa {

struct SpillContext;  // spill/spill.h
class NetContext;     // net/coordinator.h

/// Configuration of one counting job.
struct KmerCountConfig {
  int mer_length = 32;         // length of the counted mers; <= 32.
  uint32_t num_workers = 16;   // output partitions (PartitionOf routing).
  unsigned num_threads = 0;    // OS threads; 0 = hardware concurrency.
  uint32_t num_shards = 0;     // rounded up to a power of two, capped at
                               // 1024; 0 = auto (4x threads).
  uint32_t coverage_threshold = 1;  // keep mers with count >= threshold.

  // Super-k-mer minimizer length, clamped internally to
  // min(minimizer_len, mer_length, 31).
  int minimizer_len = 11;

  // The run's spill context (spill/spill.h), which exists only under a
  // nonzero memory budget, or nullptr. Of it a local session uses only the
  // budget, which caps the session's queued-byte bound at min(bound,
  // budget), floored at one chunk (a fleet session's too). A fleet
  // session's journal also charges the budget and sends its overflow to
  // the context's spill manager.
  SpillContext* spill = nullptr;

  // Distributed execution over this fleet (net/coordinator.h). Non-null,
  // with at least one worker, hands every sealed pass-1 chunk to
  // net::FleetCounter (net/fleet_counter.h), which journals it and ships it
  // to the shard's current owner (the lease starts at worker s % N and
  // moves to a survivor if the owner dies); the session then keeps no
  // count table. The queued-byte bound covers the unacked in-flight
  // network bytes. Output is bit-identical to the in-process path,
  // including across worker failures: orphaned shards are replayed from
  // the journal to their new owner, and when the whole fleet dies the
  // journal is counted locally.
  // The journal is released when Finish returns.
  NetContext* net = nullptr;
};

/// Execution metrics of one counting job (feeds RunStats / benches).
struct KmerCountStats {
  uint64_t total_bases = 0;     // bases scanned (incl. 'N')
  uint64_t total_windows = 0;   // canonical mers counted (with duplicates)
  uint64_t distinct_mers = 0;   // distinct canonical mers
  uint64_t surviving_mers = 0;  // after the coverage-threshold filter
  uint32_t shards = 0;          // shard count actually used
  unsigned threads = 0;         // thread count actually used
  double pass1_seconds = 0;     // partition pass
  double pass2_seconds = 0;     // count pass

  // Everything below is measured by the sharded counter only; the serial
  // oracle fills just the totals above and leaves the rest zero or empty.

  // Pass-1 shuffle volume: shuffled_messages counts the shipped
  // super-k-mer records, shuffled_bytes is the measured chunk payload.
  int minimizer_len = 0;        // effective m
  uint64_t superkmers = 0;      // super-k-mer records
  uint64_t shuffled_messages = 0;
  uint64_t shuffled_bytes = 0;

  // Measured per-shard pass-2 load: windows counted, chunk payload bytes,
  // shipped units. Used for per-worker skew attribution in
  // MerCountRunStats.
  std::vector<uint64_t> shard_windows;
  std::vector<uint64_t> shard_bytes;
  std::vector<uint64_t> shard_messages;

  // High-water mark of admitted chunk bytes not yet released, and the
  // bound it is guaranteed to stay under. Admitted bytes include the
  // unacked network bytes, so the bound covers every resident chunk byte.
  uint64_t peak_queued_bytes = 0;
  uint64_t queue_bound_bytes = 0;

  // Slot bytes allocated by this process's count tables when counting
  // ended (ShardCounterBank::table_bytes summed over shards). A fleet
  // session's tables live in the workers, so it counts only the shards a
  // degraded fleet rebuilt here, and reads zero when none were.
  uint64_t table_bytes = 0;

  // How many times a thread exhausted its spin budget on a full bound,
  // full ring or empty ring and parked (also published as the
  // counting.queue_spin metric). Like peak_queued_bytes, scheduling-
  // dependent — equivalence tests mask it.
  uint64_t queue_spin_parks = 0;

  // Distributed execution (net/); all zero for in-process runs. Byte
  // totals depend on chunk boundaries (thread scheduling), so equivalence
  // comparisons mask them, like peak_queued_bytes.
  uint32_t distributed_workers = 0;  // remote shard worker processes
  uint64_t net_chunks = 0;           // pass-1 chunks shipped to workers
  uint64_t net_sent_bytes = 0;       // serialized chunk payload bytes sent
                                     // (replays included)
  uint64_t net_received_bytes = 0;   // result payload bytes returned

  // Distributed fault recovery; all zero for failure-free runs.
  uint64_t worker_failures = 0;    // workers declared dead this run
  uint64_t shards_reassigned = 0;  // shard leases moved to a survivor
  uint64_t chunks_replayed = 0;    // journal chunks resent after failover
  uint64_t net_journal_bytes = 0;  // chunk bytes held by the journal
  uint64_t net_journal_spilled_bytes = 0;  // journal overflow sent to disk
  bool net_degraded = false;  // fleet exhausted; finished by local counting
};

/// (canonical code, count) pairs partitioned by PartitionOf(code,
/// num_workers).
using MerCounts = Partitioned<std::pair<uint64_t, uint32_t>>;

/// Sharded parallel counter over an in-memory read set: a CounterSession
/// fed from a thread pool, one AddBatch per thread over a contiguous slice.
MerCounts CountCanonicalMers(const std::vector<Read>& reads,
                             const KmerCountConfig& config,
                             KmerCountStats* stats = nullptr);

/// Single-threaded reference counter, the one counting oracle: one hash map
/// over the reads, yielding the same multiset of (code, count) pairs per
/// output partition as the sharded counter. Called only from tests and
/// bench_micro_kmer; no pipeline run counts with it. Of `stats` it fills
/// the totals, pass2_seconds and shards = threads = 1.
MerCounts CountCanonicalMersSerial(const std::vector<Read>& reads,
                                   const KmerCountConfig& config,
                                   KmerCountStats* stats = nullptr);

/// Streaming batch-ingest counter, the one sharded counter: counting runs
/// concurrently with scanning under a bounded buffer, so the whole chunk
/// stream is never resident. Intended consumers are the io/read_stream.h
/// worker threads:
///
///   CounterSession session(config);
///   stream.ForEachBatch(threads, [&](ReadBatch& b) {
///     session.AddBatch(b.reads);      // thread-safe, blocks when ahead
///   });
///   MerCounts counts = session.Finish(&stats);
///
/// Finish() yields the same partitioned (code, count) multiset as
/// CountCanonicalMers / CountCanonicalMersSerial over the concatenation of
/// all batches (counting is commutative, including the saturating
/// increment), and stats.peak_queued_bytes <= stats.queue_bound_bytes
/// always holds.
class CounterSession {
 public:
  /// `max_queued_bytes` bounds the chunk bytes buffered between scanners
  /// and counters; 0 picks kDefaultMaxQueuedBytes, which is what the
  /// pipeline uses (tests pass smaller bounds to force backpressure).
  /// config.spill's budget caps it. Values below the internal flush
  /// granularity (plus one maximal super-k-mer record) are rounded up to
  /// it so a single flushed chunk always fits.
  explicit CounterSession(const KmerCountConfig& config,
                          uint64_t max_queued_bytes = 0);
  ~CounterSession();

  CounterSession(const CounterSession&) = delete;
  CounterSession& operator=(const CounterSession&) = delete;

  static constexpr uint64_t kDefaultMaxQueuedBytes = 32ULL << 20;  // 32 MB

  /// Scans `reads` and feeds their canonical mers to the shard counters.
  /// Thread-safe; blocks while the queued-byte bound is exceeded.
  void AddBatch(const Read* reads, size_t n);
  void AddBatch(const std::vector<Read>& reads) {
    AddBatch(reads.data(), reads.size());
  }

  /// Drains the counters and returns the partitioned survivor counts. Must
  /// be called exactly once, after all AddBatch callers have finished. A
  /// fleet session collects its shards from the workers here and throws
  /// std::runtime_error on a failure recovery cannot mend
  /// (net/fleet_counter.h).
  MerCounts Finish(KmerCountStats* stats = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Renders the sharded counter's metrics as a two-superstep RunStats
/// (partition pass = map + shuffle, count pass = reduce), with the measured
/// per-shard loads folded into worker slots, so the pipeline's
/// cluster-model bookkeeping covers counting like any other job.
RunStats MerCountRunStats(const KmerCountStats& stats, uint32_t num_workers,
                          const std::string& job_name);

/// Pass-2 counting state: one count table per shard plus the
/// survivor filter and routing, fed one pass-1 chunk at a time. It is the
/// one place a chunk becomes table counts — a local CounterSession's ring
/// drain, a shard worker endpoint (net/worker.h, one bank per coordinator
/// connection), and a degraded fleet's journal replay (net/fleet_counter.h)
/// all count through it. Counting is commutative, so a bank fed any
/// interleaving of a shard's chunks finalizes to the same (code, count)
/// multiset per partition. Calls on distinct shards may run concurrently;
/// calls on one shard must not.
class ShardCounterBank {
 public:
  ShardCounterBank(int mer_length, uint32_t num_shards);
  ~ShardCounterBank();

  ShardCounterBank(const ShardCounterBank&) = delete;
  ShardCounterBank& operator=(const ShardCounterBank&) = delete;

  uint32_t num_shards() const;

  /// Decodes `size` bytes of back-to-back super-k-mer records in place and
  /// counts their windows into `shard`'s table. False (with a diagnostic in
  /// *error) on a shard out of range, malformed records, or a decoded
  /// window count other than `windows`.
  bool AddChunk(uint32_t shard, const uint8_t* records, size_t size,
                uint64_t windows, std::string* error);

  /// AddChunk over one serialized chunk payload — the journal and wire
  /// record: varint(windows) varint(records) records. Bytes read back from
  /// the journal's overflow file or a socket are never trusted to be
  /// well-formed.
  bool AddChunkPayload(uint32_t shard, const uint8_t* data, size_t size,
                       std::string* error);

  uint64_t chunks(uint32_t shard) const;
  uint64_t windows(uint32_t shard) const;
  uint64_t distinct(uint32_t shard) const;
  /// Slot bytes allocated by `shard`'s table: its capacity times 12.
  uint64_t table_bytes(uint32_t shard) const;

  /// Keeps `shard`'s mers counted at least `coverage_threshold` times and
  /// routes them into `num_workers` partitions by PartitionOf(code,
  /// num_workers), the routing phase (ii) consumes.
  MerCounts Finalize(uint32_t shard, uint32_t coverage_threshold,
                     uint32_t num_workers);

 private:
  struct Rep;
  std::unique_ptr<Rep> rep_;
};

}  // namespace ppa

#endif  // PPA_DBG_KMER_COUNTER_H_
