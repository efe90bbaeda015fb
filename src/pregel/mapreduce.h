// Mini MapReduce — the paper's second Pregel+ API extension (Sec. II),
// rebuilt as a sharded hash group-by shuffle engine.
//
// "Each line may generate (zero or more) key-value pairs (using UDF map()),
//  ... shuffled according to vertex ID ... sorted by key, so that all pairs
//  with the same key form a group ... each group ... processed (using UDF
//  reduce())".
//
// Used by DBG construction (both phases), contig merging (group by contig
// label, then by outer endpoint), bubble filtering (group by
// ambiguous-endpoint pair) and the ABySS-like baseline. Inputs and outputs
// are partitioned vectors so jobs chain without serialization, and the
// shuffle volume is recorded into RunStats for the cluster model.
//
// Every key and value is a flat, trivially copyable record (RunMapReduce
// static-asserts it), so a pair's bytes are the pair: every job can spill,
// and its recorded byte volume is exact.
//
// Engine shape:
//
//   Map side — each source partition emits routed (K, V) pairs into
//   fixed-capacity chunks, one active chunk per destination, sealed into a
//   per-(src, dst) chunk list when full. Pairs are written exactly once and
//   never moved again until the reduce side consumes them — unlike the old
//   outbox[src][dst] vector-of-vectors, whose W^2 buffers re-copied every
//   pair O(log n) times while doubling.
//
//   Reduce side — per destination, HashGroupBy groups the pairs (a
//   FlatTable key index assigns each pair a dense group id in one pass,
//   then a counting-scatter lays the values out contiguously per group —
//   O(n), and only the distinct keys are ever sorted).
//
// Determinism contract (any thread count, any memory budget):
//   * reduce_fn is invoked in ascending key order within each destination;
//   * each group's values arrive in (source, emit) order.
// So output is independent of num_threads. mapreduce_test checks both
// points against a serial reference MapReduce that shares no code with
// this engine.
#ifndef PPA_PREGEL_MAPREDUCE_H_
#define PPA_PREGEL_MAPREDUCE_H_

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "pregel/stats.h"
#include "spill/spill.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/varint.h"

namespace ppa {

/// A dataset partitioned across logical workers.
template <typename T>
using Partitioned = std::vector<std::vector<T>>;

/// Flattens a partitioned dataset (test/report convenience).
template <typename T>
std::vector<T> Flatten(const Partitioned<T>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> flat;
  flat.reserve(total);
  for (const auto& p : parts) flat.insert(flat.end(), p.begin(), p.end());
  return flat;
}

/// Splits a flat dataset round-robin into `num_workers` input partitions.
template <typename T>
Partitioned<T> Scatter(const std::vector<T>& data, uint32_t num_workers) {
  Partitioned<T> parts(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    parts[w].reserve(data.size() / num_workers + 1);
  }
  for (size_t i = 0; i < data.size(); ++i) {
    parts[i % num_workers].push_back(data[i]);
  }
  return parts;
}

/// Key hashing/routing for the shuffle. Specialize for composite keys.
template <typename K>
struct MrKeyHash {
  uint64_t operator()(const K& k) const { return Mix64(static_cast<uint64_t>(k)); }
};

/// A two-word shuffle key (bubble filtering's endpoint pair). Ordered
/// lexicographically and hashed exactly like the std::pair it stands for,
/// but trivially copyable, so jobs keyed by it spill like any other.
struct PairKey {
  uint64_t first = 0;
  uint64_t second = 0;

  friend auto operator<=>(const PairKey&, const PairKey&) = default;
};

template <>
struct MrKeyHash<PairKey> {
  uint64_t operator()(const PairKey& k) const {
    return HashCombine(Mix64(k.first), k.second);
  }
};

/// Mini MapReduce job configuration.
struct MapReduceConfig {
  uint32_t num_workers = 16;
  unsigned num_threads = 0;  // 0 = hardware concurrency.
  std::string job_name = "mini-mr";

  // External spill (spill/spill.h): with the run's context (it exists only
  // under a nonzero memory budget), a sealed emit chunk stays resident
  // between map and reduce only while it fits the budget with one maximal
  // spill payload still free beside it; every other chunk moves to its
  // destination's spill file. Readback reassembles the exact (source, emit)
  // chunk order, so output stays bit-identical to the in-memory path.
  SpillContext* spill = nullptr;
};

namespace mr_internal {

/// Pairs per sealed shuffle chunk. Large enough that chunk bookkeeping is
/// negligible, small enough that a (src, dst) lane with little traffic does
/// not pin much memory.
constexpr size_t kChunkPairs = 1024;

/// Sealed chunk lists of one map task: chunks[dst] holds the task's routed
/// pairs for destination dst, in emit order. Only the owning source task
/// writes here, so the map phase takes no locks.
template <typename K, typename V>
using ChunkLists = std::vector<std::vector<std::vector<std::pair<K, V>>>>;

/// Per-job spill state of the shuffle: one spill file per destination,
/// records tagged (source, seq) so readback reassembles the exact chunk
/// order the in-memory path would have seen.
///
/// Record payload:
///
///   varint(src) varint(seq) varint(#pairs) #pairs x (K bytes, V bytes)
///
/// where seq is the chunk's index in the (src, dst) sealed-chunk lane. The
/// map side pushes an empty placeholder chunk at that index, so lanes keep
/// their numbering; the reduce side substitutes the read-back pairs and
/// refuses to proceed when a placeholder has no matching record. The spill
/// manager's ledger counts every record and byte appended and refuses a
/// destination file whose record count differs at replay, so a short or
/// duplicated record stream can never silently drop pairs.
template <typename K, typename V>
class ShuffleSpill {
 public:
  ShuffleSpill(SpillContext* context, const std::string& job_name,
               uint32_t num_workers)
      : context_(context) {
    if (context_ == nullptr) return;
    files_.reserve(num_workers);
    for (uint32_t d = 0; d < num_workers; ++d) {
      files_.push_back(context_->manager.NewFile(job_name + "-dst-" +
                                                 std::to_string(d)));
    }
  }

  ~ShuffleSpill() {
    // Chunks kept resident were charged at seal time and consumed by the
    // reduce; settle their budget accounting when the job ends.
    if (context_ != nullptr) {
      context_->budget.ReleasePinned(
          charged_.load(std::memory_order_relaxed));
    }
  }

  bool enabled() const { return !files_.empty(); }

  /// The largest record payload OfferSealed queues: three varints and one
  /// full chunk of flat pairs.
  static constexpr uint64_t kMaxPayloadBytes =
      3 * 10 + kChunkPairs * (sizeof(K) + sizeof(V));

  /// Seal-time policy. Returns true after serializing and queuing `chunk`
  /// for its destination's file (the caller pushes the placeholder);
  /// returns false — charging the chunk to the budget — when it stays
  /// resident. Thread-safe across map tasks.
  bool OfferSealed(uint32_t src, uint32_t dst, uint64_t seq,
                   const std::vector<std::pair<K, V>>& chunk) {
    const uint64_t footprint = chunk.size() * sizeof(std::pair<K, V>);
    // Check-and-charge must be one atomic step: concurrent map tasks
    // probing the budget separately would all pass and collectively
    // exceed it. A kept chunk stays resident until the reduce consumes
    // it: pinned, so spill backpressure never waits on it. Keeping room
    // for one maximal payload beside the pins is what holds the peak
    // within max(budget, kMaxPayloadBytes); a budget below that pins
    // nothing, so every chunk goes to disk.
    if (context_->budget.TryChargePinned(footprint, kMaxPayloadBytes)) {
      charged_.fetch_add(footprint, std::memory_order_relaxed);
      return false;
    }
    std::vector<uint8_t> payload;
    payload.reserve(footprint + 3 * 10);
    PutVarint64(&payload, src);
    PutVarint64(&payload, seq);
    PutVarint64(&payload, chunk.size());
    for (const auto& [key, value] : chunk) {
      AppendRaw(&payload, &key, sizeof(K));
      AppendRaw(&payload, &value, sizeof(V));
    }
    // The serialized bytes are resident on the writer until written;
    // blocking here is the map side's backpressure on disk bandwidth,
    // which is what holds peak residency under the budget.
    context_->budget.ChargeBlocking(payload.size());
    MemoryBudget* budget = &context_->budget;
    const uint64_t written = payload.size();
    context_->manager.Append(files_[dst], std::move(payload),
                             [budget, written] { budget->Release(written); });
    return true;
  }

  /// One read-back chunk of a destination, in its lane position.
  struct ReadChunk {
    uint64_t src = 0;
    uint64_t seq = 0;
    std::vector<std::pair<K, V>> pairs;
  };

  /// Replays destination `dst`'s spill file, sorted by (src, seq), and
  /// deletes the file: the reduce reads it exactly once. On corruption
  /// fills `error` (the partial result must not be used).
  std::vector<ReadChunk> ReadBack(uint32_t dst, std::string* error) {
    std::vector<ReadChunk> out;
    if (!enabled()) return out;
    auto decode = [&out](const std::vector<uint8_t>& payload,
                         std::string* why) {
      ReadChunk chunk;
      size_t pos = 0;
      uint64_t n = 0;
      // Overflow-safe pair-count check: n is an untrusted varint, so the
      // product form `n * pair_bytes == remaining` could wrap.
      constexpr uint64_t kPairBytes = sizeof(K) + sizeof(V);
      const bool header_ok =
          GetVarint64(payload.data(), payload.size(), &pos, &chunk.src) &&
          GetVarint64(payload.data(), payload.size(), &pos, &chunk.seq) &&
          GetVarint64(payload.data(), payload.size(), &pos, &n) &&
          n == (payload.size() - pos) / kPairBytes &&
          (payload.size() - pos) % kPairBytes == 0;
      if (!header_ok) {
        *why = "malformed shuffle record";
        return false;
      }
      chunk.pairs.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        std::memcpy(&chunk.pairs[i].first, payload.data() + pos, sizeof(K));
        pos += sizeof(K);
        std::memcpy(&chunk.pairs[i].second, payload.data() + pos, sizeof(V));
        pos += sizeof(V);
      }
      out.push_back(std::move(chunk));
      return true;
    };
    if (!context_->manager.Replay(files_[dst], decode, error)) return out;
    context_->manager.Discard(files_[dst]);
    std::sort(out.begin(), out.end(),
              [](const ReadChunk& a, const ReadChunk& b) {
                return a.src != b.src ? a.src < b.src : a.seq < b.seq;
              });
    return out;
  }

  /// Barriers the writers between map and reduce. Throws on write failure.
  void SyncOrThrow() {
    if (enabled() && !context_->manager.Sync()) {
      throw std::runtime_error(context_->manager.error());
    }
  }

  /// This job's spill volume, from the spill manager's ledger.
  SpillStats Stats() const {
    return enabled() ? context_->manager.Stats(files_) : SpillStats{};
  }

 private:
  static void AppendRaw(std::vector<uint8_t>* out, const void* data,
                        size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out->insert(out->end(), p, p + n);
  }

  SpillContext* context_;
  std::vector<uint32_t> files_;  // one per destination; empty = disabled
  std::atomic<uint64_t> charged_{0};
};

/// Routed, chunked emit buffer of one map task.
template <typename K, typename V>
class Emitter {
 public:
  Emitter(ChunkLists<K, V>* sealed, uint32_t num_workers, uint32_t src = 0,
          ShuffleSpill<K, V>* spill = nullptr)
      : sealed_(sealed), active_(num_workers), num_workers_(num_workers),
        src_(src), spill_(spill) {}

  void Emit(K key, V value) {
    ++emitted_;
    const uint32_t d =
        static_cast<uint32_t>(MrKeyHash<K>{}(key) % num_workers_);
    auto& chunk = active_[d];
    if (chunk.capacity() == 0) chunk.reserve(kChunkPairs);
    chunk.emplace_back(std::move(key), std::move(value));
    if (chunk.size() >= kChunkPairs) Seal(d);
  }

  /// Seals all pending pairs into the chunk lists. Call once, after the
  /// last Emit.
  void Flush() {
    for (uint32_t d = 0; d < num_workers_; ++d) {
      if (!active_[d].empty()) Seal(d);
    }
  }

  uint64_t emitted() const { return emitted_; }

 private:
  // Seals the active chunk of destination d into its lane — to disk (an
  // empty placeholder keeps the lane's seq numbering) when the spill
  // policy takes it, into memory otherwise. Sealed chunks are never empty,
  // which is what lets readback recognize placeholders.
  void Seal(uint32_t d) {
    auto& chunk = active_[d];
    if (spill_ != nullptr && spill_->enabled() &&
        spill_->OfferSealed(src_, d, (*sealed_)[d].size(), chunk)) {
      (*sealed_)[d].emplace_back();
      chunk.clear();  // keep the capacity for the next fill
      return;
    }
    (*sealed_)[d].push_back(std::move(chunk));
    chunk = {};
  }

  ChunkLists<K, V>* sealed_;
  std::vector<std::vector<std::pair<K, V>>> active_;  // one per destination
  uint32_t num_workers_;
  uint32_t src_;
  ShuffleSpill<K, V>* spill_;
  uint64_t emitted_ = 0;
};

/// Groups one destination's chunks with an open-addressing key index and a
/// counting scatter, then reduces groups in ascending key order. Consumes
/// (and frees) the chunks. O(total) grouping; only distinct keys are sorted.
template <typename K, typename V, typename Out, typename ReduceFn>
uint64_t HashGroupBy(std::vector<std::vector<std::pair<K, V>>*>& chunks,
                     size_t total, ReduceFn& reduce_fn,
                     std::vector<Out>& out) {
  // Pass 1: assign each pair its dense group id; count group sizes. The
  // index maps a key to its group id + 1. Each new key is a miss probe, so
  // the index holds room for `total` keys: it never grows, and at phase
  // (ii)'s two pairs or so per key its load stays below 0.43.
  FlatTable<K, MrKeyHash<K>> index;
  index.Reserve(total);
  std::vector<uint32_t> pair_group;
  pair_group.reserve(total);
  std::vector<uint32_t> group_size;
  for (const auto* chunk : chunks) {
    for (const auto& [key, value] : *chunk) {
      const uint32_t g =
          index.Insert(key, static_cast<uint32_t>(group_size.size()) + 1) - 1;
      if (g == group_size.size()) group_size.push_back(0);
      ++group_size[g];
      pair_group.push_back(g);
    }
  }
  const size_t num_groups = group_size.size();
  std::vector<K> keys(num_groups);
  index.ForEach([&keys](const K& key, uint32_t g) { keys[g - 1] = key; });
  index = {};

  // Offsets of each group in the flat value array.
  std::vector<size_t> group_begin(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    group_begin[g + 1] = group_begin[g] + group_size[g];
  }

  // Pass 2: scatter values into their group's slice, preserving arrival
  // order within each group; chunks are freed as they drain.
  std::vector<V> values(total);
  std::vector<size_t> fill(group_begin.begin(), group_begin.end() - 1);
  size_t p = 0;
  for (auto* chunk : chunks) {
    for (auto& [key, value] : *chunk) {
      values[fill[pair_group[p++]]++] = std::move(value);
    }
    *chunk = {};
  }

  // Reduce in ascending key order (the engine's ordering contract).
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  uint64_t reduce_ops = 0;
  for (uint32_t g : order) {
    reduce_fn(keys[g],
              std::span<V>(values.data() + group_begin[g], group_size[g]),
              out);
    reduce_ops += group_size[g];
  }
  return reduce_ops;
}

}  // namespace mr_internal

/// Runs a mini MapReduce job.
///
///   map_fn:    void(const In&, Emitter&)  with Emitter::Emit(K, V)
///   reduce_fn: void(const K&, std::span<V>, std::vector<Out>&)
///
/// Returns the reduce outputs, partitioned by the shuffle hash of the key
/// that produced them (so k-mer-keyed outputs land on the k-mer's worker).
/// reduce_fn is invoked in ascending key order per destination, and each
/// group's values arrive in (source, emit) order — under any thread count
/// and spill mode, so outputs are deterministic. If `stats` is non-null,
/// shuffle volumes are appended as two supersteps (map+shuffle, reduce).
template <typename In, typename K, typename V, typename Out, typename MapFn,
          typename ReduceFn>
Partitioned<Out> RunMapReduce(const Partitioned<In>& input, MapFn map_fn,
                              ReduceFn reduce_fn,
                              const MapReduceConfig& config,
                              RunStats* stats = nullptr) {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "shuffle keys and values must be flat records: their bytes "
                "are spilled and counted as they are");
  Timer timer;
  const uint32_t W = config.num_workers;
  PPA_CHECK(input.size() == W);
  ThreadPool pool(config.num_threads);

  // --- Map phase: each source emits routed pairs into sealed chunks; the
  // spill policy may divert sealed chunks to per-destination files. -------
  mr_internal::ShuffleSpill<K, V> spill(config.spill, config.job_name, W);
  std::vector<mr_internal::ChunkLists<K, V>> sealed(W);
  std::vector<uint64_t> emitted(W, 0);
  pool.Run(W, [&](uint32_t src) {
    PPA_TRACE_SPAN("map_phase", "mapreduce");
    sealed[src].resize(W);
    mr_internal::Emitter<K, V> emitter(&sealed[src], W, src, &spill);
    for (const In& record : input[src]) {
      map_fn(record, emitter);
    }
    emitter.Flush();
    emitted[src] = emitter.emitted();
  });
  // Spilled chunks must be durable (and their byte accounting settled)
  // before any destination starts reading them back.
  spill.SyncOrThrow();

  SuperstepStats map_ss;
  map_ss.superstep = 0;
  uint64_t pairs_shuffled = 0;
  for (uint32_t src = 0; src < W; ++src) pairs_shuffled += emitted[src];
  if (stats != nullptr) {
    map_ss.worker_messages.resize(W);
    map_ss.worker_bytes.resize(W);
    map_ss.worker_ops.resize(W);
    for (uint32_t src = 0; src < W; ++src) {
      map_ss.worker_messages[src] = emitted[src];
      // Byte volume is the pairs' inline footprint, exact because keys
      // and values are flat records.
      map_ss.worker_bytes[src] = emitted[src] * sizeof(std::pair<K, V>);
      map_ss.worker_ops[src] = input[src].size() + emitted[src];
      map_ss.active_vertices += input[src].size();
    }
    map_ss.messages_sent = pairs_shuffled;
    map_ss.message_bytes = pairs_shuffled * sizeof(std::pair<K, V>);
    map_ss.compute_ops = pairs_shuffled;
  }

  // --- Shuffle + group-by + reduce phase. ----------------------------------
  Partitioned<Out> output(W);
  std::vector<uint64_t> reduce_ops(W, 0);
  std::vector<std::string> readback_errors(W);
  pool.Run(W, [&](uint32_t dst) {
    PPA_TRACE_SPAN("reduce_phase", "mapreduce");
    // Collect this destination's chunks in (source, emit) order — the
    // deterministic arrival order HashGroupBy preserves within groups.
    // Spilled chunks are read back here, shard-locally, and slotted into
    // the lane positions their placeholders hold, so the order is the one
    // the in-memory path would have produced. Errors are collected, not
    // thrown — an exception on a pool worker thread would terminate.
    auto readback = spill.ReadBack(dst, &readback_errors[dst]);
    if (!readback_errors[dst].empty()) return;
    size_t next_readback = 0;  // readback is sorted by (src, seq)
    std::vector<std::vector<std::pair<K, V>>*> chunks;
    size_t total = 0;
    for (uint32_t src = 0; src < W; ++src) {
      auto& lane = sealed[src][dst];
      for (size_t seq = 0; seq < lane.size(); ++seq) {
        std::vector<std::pair<K, V>>* chunk = &lane[seq];
        if (spill.enabled() && chunk->empty()) {
          if (next_readback >= readback.size() ||
              readback[next_readback].src != src ||
              readback[next_readback].seq != seq) {
            readback_errors[dst] =
                "spill readback failed: no record for spilled chunk (src " +
                std::to_string(src) + ", seq " + std::to_string(seq) +
                ") of " + config.job_name;
            return;
          }
          chunk = &readback[next_readback++].pairs;
        }
        chunks.push_back(chunk);
        total += chunk->size();
      }
    }
    if (next_readback != readback.size()) {
      readback_errors[dst] =
          "spill readback failed: " +
          std::to_string(readback.size() - next_readback) +
          " spilled chunks have no placeholder in " + config.job_name;
      return;
    }
    reduce_ops[dst] = mr_internal::HashGroupBy<K, V, Out>(
        chunks, total, reduce_fn, output[dst]);
  });
  for (const std::string& error : readback_errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }

  if (stats != nullptr) {
    stats->spill += spill.Stats();
    stats->job_name = config.job_name;
    stats->pairs_shuffled += pairs_shuffled;
    stats->supersteps.push_back(std::move(map_ss));
    SuperstepStats reduce_ss;
    reduce_ss.superstep = 1;
    reduce_ss.worker_messages.assign(W, 0);
    reduce_ss.worker_bytes.assign(W, 0);
    reduce_ss.worker_ops = std::vector<uint64_t>(reduce_ops.begin(),
                                                 reduce_ops.end());
    for (uint32_t d = 0; d < W; ++d) {
      reduce_ss.compute_ops += reduce_ops[d];
      reduce_ss.active_vertices += output[d].size();
    }
    stats->supersteps.push_back(std::move(reduce_ss));
    stats->wall_seconds += timer.Seconds();
  }
  return output;
}

}  // namespace ppa

#endif  // PPA_PREGEL_MAPREDUCE_H_
