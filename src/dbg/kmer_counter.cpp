#include "dbg/kmer_counter.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dna/encode_simd.h"
#include "dna/kmer.h"
#include "dna/superkmer.h"
#include "net/fleet_counter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spill/spill.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mpsc_ring.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/varint.h"

namespace ppa {

namespace {

// Payload appended per (thread, shard) chunk before it is admitted and
// routed. Large enough that admission runs once per tens of kilobytes,
// small enough to stay cache-resident. A chunk flushes at the first record
// that reaches kFlushChunkBytes, so it never exceeds
// kFlushChunkBytes + kMaxSuperkmerRecordBytes.
constexpr size_t kFlushChunkBytes = 32 << 10;

// Ring-queue shape. 64 slots per shard bounds ring memory at ~6 KB/shard
// of cell headers while holding far more chunk bytes than the session byte
// bound admits; the spin budget is how long a thread burns on a full bound,
// full ring or empty ring before parking on the session condvar (each park
// is one counting.queue_spin tick).
constexpr size_t kRingCapacity = 64;
constexpr int kQueueSpinIters = 64;

uint64_t NextPow2(uint64_t x) { return std::bit_ceil(std::max<uint64_t>(x, 1)); }

int EffectiveMinimizerLen(const KmerCountConfig& config) {
  return std::min({config.minimizer_len, config.mer_length, 31});
}

/// Shared scanning semantics of both counters: cut `read` into canonical
/// mers, splitting at non-ACGT bases (Sec. IV.B-1), and call fn(code) for
/// each. Keeping this in one place is what makes the serial counter a
/// definitionally identical oracle for the sharded one.
template <typename Fn>
void ScanCanonicalMers(const Read& read, KmerWindow& window, Fn&& fn) {
  window.Reset();
  for (char c : read.bases) {
    int b = BaseFromChar(c);
    if (b < 0) {
      window.Reset();
      continue;
    }
    if (window.Push(static_cast<uint8_t>(b))) {
      fn(window.Current().Canonical().code());
    }
  }
}

/// One flushed pass-1 buffer: back-to-back super-k-mer records
/// (dna/superkmer.h) bound for one shard.
struct Pass1Chunk {
  std::vector<uint8_t> packed;
  uint64_t windows = 0;  // canonical windows this chunk carries
  uint64_t records = 0;  // super-k-mer records in `packed`

  size_t SizeBytes() const { return packed.size(); }
};

/// Serialized journal/wire payload of one Pass1Chunk:
///
///   varint(windows) varint(records) packed super-k-mer records
///
/// Framing (length, CRC) is the spill store's or the wire's job; this is
/// just the chunk. ShardCounterBank::AddChunkPayload decodes it.
std::vector<uint8_t> EncodePass1Chunk(const Pass1Chunk& chunk) {
  std::vector<uint8_t> payload;
  payload.reserve(chunk.SizeBytes() + 2 * 10);
  PutVarint64(&payload, chunk.windows);
  PutVarint64(&payload, chunk.records);
  payload.insert(payload.end(), chunk.packed.begin(), chunk.packed.end());
  return payload;
}

/// Resolved execution shape of one counting job.
struct Plan {
  unsigned threads;
  uint32_t shards;
  int shard_shift;  // shard = hash >> shard_shift (64 = single shard)
};

Plan MakePlan(const KmerCountConfig& config) {
  Plan plan;
  plan.threads = ThreadPool::Resolve(config.num_threads);
  uint64_t shards = config.num_shards == 0
                        ? NextPow2(static_cast<uint64_t>(plan.threads) * 4)
                        : NextPow2(config.num_shards);
  shards = std::min<uint64_t>(shards, 1024);
  plan.shards = static_cast<uint32_t>(shards);
  plan.shard_shift = 64 - std::countr_zero(shards);
  return plan;
}

/// Per-AddBatch pass-1 state: cuts reads into super-k-mers, appends each
/// to its shard's chunk and hands full chunks to a sink (which admits and
/// routes them). The per-base hot path touches only thread-local state.
class Pass1Scanner {
 public:
  Pass1Scanner(const KmerCountConfig& config, const Plan& plan)
      : plan_(plan),
        sk_scanner_(config.mer_length, config.minimizer_len),
        local_(plan.shards) {}

  uint64_t bases() const { return bases_; }

  /// Sink signature: void(uint32_t shard, Pass1Chunk&&).
  template <typename Sink>
  void ScanRead(const Read& read, Sink&& sink) {
    bases_ += read.bases.size();
    if (read.bases.empty()) return;
    // Work from 2-bit codes, classified here (vectorized or scalar per the
    // active dispatch level) so the reader thread never touches a base.
    codes_.resize(read.bases.size());
    ClassifyBases(read.bases.data(), read.bases.size(), codes_.data());
    const uint8_t* codes = codes_.data();
    sk_scanner_.ScanCodes(codes, read.bases.size(), [&](const Superkmer& sk) {
      const uint32_t s = ShardOf(sk.minimizer_hash);
      Pass1Chunk& chunk = local_[s];
      AppendSuperkmerCodes(codes + sk.base_offset, sk.base_length,
                           &chunk.packed);
      chunk.windows += sk.windows;
      chunk.records += 1;
      if (chunk.packed.size() >= kFlushChunkBytes) {
        Flush(s, /*refill=*/true, sink);
      }
    });
  }

  /// Hands the remaining partial chunks to the sink.
  template <typename Sink>
  void Drain(Sink&& sink) {
    for (uint32_t s = 0; s < plan_.shards; ++s) {
      if (local_[s].SizeBytes() != 0) Flush(s, /*refill=*/false, sink);
    }
  }

 private:
  // `hash` is the run's minimizer_hash, the smallest key among the window's
  // m-mers, so its top bits are heavily skewed toward zero (a window lands
  // in shard 0 of 8 with probability ~1 - (7/8)^(L-m+1)). Re-mixing it gives
  // a key that is uniform over shards and still a function of the canonical
  // minimizer alone, which keeps the routing strand-invariant.
  uint32_t ShardOf(uint64_t hash) const {
    return plan_.shard_shift >= 64
               ? 0
               : static_cast<uint32_t>(Mix64(hash) >> plan_.shard_shift);
  }

  template <typename Sink>
  void Flush(uint32_t s, bool refill, Sink&& sink) {
    Pass1Chunk chunk = std::move(local_[s]);
    local_[s] = Pass1Chunk{};
    // Buffers start unreserved: with S buffers per thread, eager reserves
    // would cost threads x shards x 32 KB before any input is seen. Only a
    // buffer that actually filled once gets the full-size replacement, and
    // the final drain never writes one.
    if (refill) {
      local_[s].packed.reserve(kFlushChunkBytes + kMaxSuperkmerRecordBytes);
    }
    sink(s, std::move(chunk));
  }

  const Plan& plan_;
  SuperkmerScanner sk_scanner_;
  std::vector<uint8_t> codes_;  // per-read classify buffer, reused
  std::vector<Pass1Chunk> local_;
  uint64_t bases_ = 0;
};

/// Concatenates the per-shard slices of each output partition in ascending
/// shard order, one partition per pool task. Local and fleet sessions both
/// end here, which is what keeps their outputs bit-identical.
MerCounts ConcatenatePartitions(std::vector<MerCounts>& shard_out, uint32_t W,
                                ThreadPool& pool) {
  MerCounts result(W);
  pool.Run(W, [&](uint32_t d) {
    size_t total = 0;
    for (const MerCounts& out : shard_out) total += out[d].size();
    result[d].reserve(total);
    for (MerCounts& out : shard_out) {
      std::move(out[d].begin(), out[d].end(), std::back_inserter(result[d]));
      out[d].clear();
    }
  });
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// CounterSession: count-while-scanning behind one byte admission.
// ---------------------------------------------------------------------------

struct CounterSession::Impl {
  KmerCountConfig config;
  Plan plan;
  uint64_t bound;
  unsigned num_counters = 0;

  // Local sessions count every chunk into this bank, shard s's on its
  // counter thread (s % num_counters). Null for fleet sessions.
  std::unique_ptr<ShardCounterBank> bank;

  // Distributed execution (net/fleet_counter.h). Non-null ships every
  // sealed chunk to the worker fleet, and queued_bytes then bounds the
  // unacknowledged in-flight bytes, so the scanners still feel
  // backpressure from slow workers. Reset when Finish returns, which ends
  // the journal and its budget charge with counting.
  std::unique_ptr<net::FleetCounter> fleet;

  // One lock-free MPSC ring per shard, drained by the counter threads;
  // empty for fleet sessions, which run no counter thread.
  std::vector<std::unique_ptr<MpscRing<Pass1Chunk>>> rings;

  // Byte admission, one gate for both routes: chunk bytes admitted and not
  // yet released, whether ring-resident or unacked on the wire. mu and the
  // condvars only park threads whose spin budget ran out; no chunk ever
  // moves under mu.
  std::atomic<uint64_t> queued_bytes{0};
  std::atomic<uint64_t> peak_queued_bytes{0};
  std::atomic<uint32_t> not_full_waiters{0};
  std::atomic<uint32_t> not_empty_waiters{0};
  std::atomic<uint64_t> queue_spin_parks{0};
  std::atomic<bool> finishing{false};
  std::mutex mu;
  std::condition_variable not_full;   // admission waits here (backpressure)
  std::condition_variable not_empty;  // counters wait here

  // Per-shard ledger of every sealed chunk, tallied as it enters Enqueue
  // (scanners seal chunks of one shard concurrently, hence atomic). Every
  // super-k-mer lands in exactly one sealed chunk, so the ledger also
  // gives the session's window and super-k-mer totals.
  struct ShardLedger {
    std::atomic<uint64_t> windows{0};
    std::atomic<uint64_t> bytes{0};     // chunk payload bytes
    std::atomic<uint64_t> messages{0};  // super-k-mer records
  };
  std::unique_ptr<ShardLedger[]> ledger;

  std::atomic<uint64_t> total_bases{0};  // no ledger holds bases
  std::vector<std::thread> counters;
  Timer wall;
  bool finished = false;

  explicit Impl(const KmerCountConfig& cfg, uint64_t max_queued_bytes)
      : config(cfg), plan(MakePlan(cfg)) {
    fleet = net::FleetCounter::Open(config, plan.shards, [this] {
      std::lock_guard<std::mutex> lock(mu);
      not_full.notify_all();
    });
    bound = max_queued_bytes == 0 ? CounterSession::kDefaultMaxQueuedBytes
                                  : max_queued_bytes;
    // The run's memory budget (a spill context exists only under one)
    // also caps this session's queued chunk bytes, local or fleet.
    if (config.spill != nullptr) {
      bound = std::min(bound, config.spill->budget.budget_bytes());
    }
    // A single flushed chunk (<= flush threshold + one maximal super-k-mer
    // record) must always be admissible when the queue is empty, or
    // enqueue would deadlock.
    bound = std::max<uint64_t>(bound,
                               kFlushChunkBytes + kMaxSuperkmerRecordBytes);
    // Fleet chunks are counted by the workers, so a fleet session keeps
    // no rings, bank or counter threads.
    if (fleet == nullptr) {
      num_counters = std::min<unsigned>(plan.threads, plan.shards);
      rings.reserve(plan.shards);
      for (uint32_t s = 0; s < plan.shards; ++s) {
        rings.push_back(std::make_unique<MpscRing<Pass1Chunk>>(kRingCapacity));
      }
      bank = std::make_unique<ShardCounterBank>(config.mer_length,
                                                plan.shards);
    }
    ledger = std::make_unique<ShardLedger[]>(plan.shards);
    counters.reserve(num_counters);
    for (unsigned c = 0; c < num_counters; ++c) {
      counters.emplace_back([this, c] { RunCounter(c); });
    }
  }

  // Spin-then-park: spins re-checking `ready`, then parks on `cv` for at
  // most 1 ms. The predicate reads atomics that are not written under mu,
  // so an untimed wait could sleep through a wakeup that slipped between
  // check and park; the timed wait bounds that race at 1 ms instead of
  // making every hot-path update take the lock. Each park ticks
  // counting.queue_spin — the contention signal the bench grids record.
  template <typename Pred>
  void Wait(std::condition_variable& cv, std::atomic<uint32_t>& waiters,
            Pred&& ready) {
    for (int i = 0; i < kQueueSpinIters; ++i) {
      if (ready()) return;
      std::this_thread::yield();
    }
    queue_spin_parks.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* spin_metric =
        obs::MetricsRegistry::Global().GetCounter("counting.queue_spin");
    spin_metric->Add(1);
    std::unique_lock<std::mutex> lock(mu);
    waiters.fetch_add(1, std::memory_order_relaxed);
    cv.wait_for(lock, std::chrono::milliseconds(1), ready);
    waiters.fetch_sub(1, std::memory_order_relaxed);
  }

  // A fleet session stops admitting once the fleet is gone or its journal
  // failed; never true for local sessions.
  bool Stopped() const { return fleet != nullptr && fleet->Stopped(); }

  // The byte admission every chunk passes. Admits n bytes by CAS when the
  // queued total stays within the bound — or unconditionally when nothing
  // is queued, so progress is guaranteed for any single chunk (n <= bound,
  // so queued_bytes <= bound still holds) — and spins, then parks, while
  // it would not. False, with nothing charged, when the session stopped.
  bool Admit(uint64_t n) {
    PPA_TRACE_SPAN_V("queue_wait", "count", n);
    uint64_t cur = queued_bytes.load(std::memory_order_relaxed);
    for (;;) {
      if (cur == 0 || cur + n <= bound) {
        if (queued_bytes.compare_exchange_weak(cur, cur + n,
                                               std::memory_order_relaxed)) {
          break;
        }
        continue;  // CAS refreshed cur; re-evaluate the admission test
      }
      if (Stopped()) return false;
      Wait(not_full, not_full_waiters, [&] {
        const uint64_t q = queued_bytes.load(std::memory_order_relaxed);
        return q == 0 || q + n <= bound || Stopped();
      });
      cur = queued_bytes.load(std::memory_order_relaxed);
    }
    uint64_t peak = peak_queued_bytes.load(std::memory_order_relaxed);
    while (cur + n > peak &&
           !peak_queued_bytes.compare_exchange_weak(
               peak, cur + n, std::memory_order_relaxed)) {
    }
    return true;
  }

  // Returns n admitted bytes once a counter drained them.
  void Release(uint64_t n) {
    queued_bytes.fetch_sub(n, std::memory_order_relaxed);
    if (not_full_waiters.load(std::memory_order_relaxed) != 0) {
      // Taking mu pairs the notify with the waiter's locked predicate
      // check; the waiter's wait_for bounds anything that still slips.
      std::lock_guard<std::mutex> lock(mu);
      not_full.notify_all();
    }
  }

  // Release for fleet chunks. Ack callbacks run on a client's receive
  // thread and may outlive the scanners, so the release happens under mu:
  // DrainNetAcks reads the counter under mu, and once it sees zero no
  // callback is still inside this session.
  void ReleaseNet(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu);
    queued_bytes.fetch_sub(n, std::memory_order_relaxed);
    not_full.notify_all();
  }

  // Every sealed chunk enters here: ledger, admission, then its shard's
  // route — the worker fleet, or the shard's ring.
  void Enqueue(uint32_t s, Pass1Chunk&& chunk) {
    const uint64_t n = chunk.SizeBytes();
    ledger[s].windows.fetch_add(chunk.windows, std::memory_order_relaxed);
    ledger[s].bytes.fetch_add(n, std::memory_order_relaxed);
    ledger[s].messages.fetch_add(chunk.records, std::memory_order_relaxed);
    if (fleet != nullptr) {
      // The chunk's bytes stay admitted until the worker's ack. Admission
      // refuses only once the fleet stopped, and then nothing is sent.
      std::function<void()> done;
      if (Admit(n)) done = [this, n] { ReleaseNet(n); };
      fleet->Route(s, EncodePass1Chunk(chunk), std::move(done));
      return;
    }
    Admit(n);
    while (!rings[s]->TryPush(std::move(chunk))) {
      Wait(not_full, not_full_waiters, [&] { return !rings[s]->Full(); });
    }
    if (not_empty_waiters.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> lock(mu);
      not_empty.notify_all();
    }
  }

  // Drains every ring owned by counter c into the bank. Returns whether
  // any chunk was processed.
  bool DrainOwnedRings(unsigned c) {
    bool worked = false;
    std::string error;
    for (uint32_t s = c; s < plan.shards; s += num_counters) {
      Pass1Chunk chunk;
      while (rings[s]->TryPop(&chunk)) {
        const uint64_t n = chunk.SizeBytes();
        {
          PPA_TRACE_SPAN_V("count_chunk", "count", n);
          // Ring chunks never left this process, so a decode failure is a
          // broken invariant, not an input error.
          PPA_CHECK(bank->AddChunk(s, chunk.packed.data(), n, chunk.windows,
                                   &error));
        }
        Release(n);
        worked = true;
      }
    }
    return worked;
  }

  void RunCounter(unsigned c) {
    obs::SetTraceThreadName("counter");
    for (;;) {
      if (DrainOwnedRings(c)) continue;
      if (finishing.load(std::memory_order_acquire)) {
        // Every AddBatch returned before Finish set the flag, so all
        // pushes happen-before this load observes it; one more drain
        // catches anything that raced the empty sweep above.
        DrainOwnedRings(c);
        return;
      }
      Wait(not_empty, not_empty_waiters, [&] {
        if (finishing.load(std::memory_order_acquire)) return true;
        for (uint32_t s = c; s < plan.shards; s += num_counters) {
          if (!rings[s]->Empty()) return true;
        }
        return false;
      });
    }
  }

  void StopCounters() {
    {
      std::lock_guard<std::mutex> lock(mu);
      finishing.store(true, std::memory_order_release);
      not_empty.notify_all();
    }
    for (auto& t : counters) t.join();
  }

  // Blocks until every in-flight chunk is acknowledged (or the transport
  // has failed, which drains the acks through the same done callbacks).
  // Required before impl can die: pending callbacks lock this session's
  // state.
  void DrainNetAcks() {
    std::unique_lock<std::mutex> lock(mu);
    not_full.wait(lock, [&] {
      return queued_bytes.load(std::memory_order_relaxed) == 0;
    });
  }

  // Local pass 2: every chunk was counted on its shard's counter thread,
  // so each shard is only filtered and routed.
  std::vector<MerCounts> CountLocal(ThreadPool& pool,
                                    std::vector<uint64_t>* distinct,
                                    std::vector<uint64_t>* table_bytes) {
    std::vector<MerCounts> shard_out(plan.shards);
    pool.Run(plan.shards, [&](uint32_t s) {
      (*distinct)[s] = bank->distinct(s);
      (*table_bytes)[s] = bank->table_bytes(s);
      shard_out[s] = bank->Finalize(s, config.coverage_threshold,
                                    config.num_workers);
    });
    return shard_out;
  }

  // The pass-2 tail of both routes: barrier what is in flight, count the
  // shards (locally, or by collecting them from the fleet), concatenate,
  // and fill the stats in one place.
  MerCounts Finish(KmerCountStats* stats) {
    // Every routed chunk must be acked before collection.
    if (fleet != nullptr) DrainNetAcks();
    const double pass1_seconds = wall.Seconds();
    Timer pass2_timer;
    const uint32_t S = plan.shards;
    std::vector<uint64_t> windows(S), bytes(S), messages(S);
    for (uint32_t s = 0; s < S; ++s) {
      windows[s] = ledger[s].windows.load();
      bytes[s] = ledger[s].bytes.load();
      messages[s] = ledger[s].messages.load();
    }
    ThreadPool pool(plan.threads);
    std::vector<uint64_t> distinct(S, 0), table_bytes(S, 0);
    std::vector<MerCounts> shard_out =
        fleet != nullptr
            ? fleet->Collect(windows, pool, &distinct, &table_bytes)
            : CountLocal(pool, &distinct, &table_bytes);
    MerCounts result =
        ConcatenatePartitions(shard_out, config.num_workers, pool);
    if (stats != nullptr) {
      *stats = KmerCountStats{};
      stats->shards = S;
      stats->threads = plan.threads;
      stats->pass1_seconds = pass1_seconds;
      stats->pass2_seconds = pass2_timer.Seconds();
      stats->total_bases = total_bases.load();
      for (uint64_t w : windows) stats->total_windows += w;
      for (uint64_t d : distinct) stats->distinct_mers += d;
      for (uint64_t b : table_bytes) stats->table_bytes += b;
      for (const auto& part : result) stats->surviving_mers += part.size();
      for (uint64_t b : bytes) stats->shuffled_bytes += b;
      stats->minimizer_len = EffectiveMinimizerLen(config);
      for (uint64_t m : messages) stats->superkmers += m;
      stats->shuffled_messages = stats->superkmers;
      stats->shard_windows = std::move(windows);
      stats->shard_bytes = std::move(bytes);
      stats->shard_messages = std::move(messages);
      stats->peak_queued_bytes = peak_queued_bytes.load();
      stats->queue_bound_bytes = bound;
      stats->queue_spin_parks = queue_spin_parks.load();
      if (fleet != nullptr) fleet->FillStats(stats);
    }
    // The journal's pinned budget charge ends with counting, so phase
    // (ii)'s shuffle gets the whole budget.
    fleet.reset();
    return result;
  }
};

CounterSession::CounterSession(const KmerCountConfig& config,
                               uint64_t max_queued_bytes) {
  PPA_CHECK(config.mer_length >= 1 && config.mer_length <= kMaxMerLength);
  PPA_CHECK(config.num_workers >= 1);
  PPA_CHECK(config.minimizer_len >= 1);
  impl_ = std::make_unique<Impl>(config, max_queued_bytes);
}

CounterSession::~CounterSession() {
  if (impl_ == nullptr || impl_->finished) return;
  impl_->StopCounters();
  // Abandoned-without-Finish path: unacknowledged network chunks hold
  // callbacks that lock this session's state, so they must settle before
  // impl_ dies.
  if (impl_->fleet != nullptr) impl_->DrainNetAcks();
}

void CounterSession::AddBatch(const Read* reads, size_t n) {
  Impl& impl = *impl_;
  PPA_CHECK(!impl.finished);
  obs::TraceSpan span("scan_batch", "count");
  Pass1Scanner scanner(impl.config, impl.plan);
  auto sink = [&impl](uint32_t s, Pass1Chunk&& chunk) {
    impl.Enqueue(s, std::move(chunk));
  };
  for (size_t r = 0; r < n; ++r) scanner.ScanRead(reads[r], sink);
  scanner.Drain(sink);
  span.set_arg(scanner.bases());
  static obs::Histogram* batch_bases =
      obs::MetricsRegistry::Global().GetHistogram("count.batch_bases");
  batch_bases->Observe(scanner.bases());
  impl.total_bases.fetch_add(scanner.bases(), std::memory_order_relaxed);
}

MerCounts CounterSession::Finish(KmerCountStats* stats) {
  Impl& impl = *impl_;
  PPA_CHECK(!impl.finished);
  impl.finished = true;
  impl.StopCounters();
  return impl.Finish(stats);
}

MerCounts CountCanonicalMers(const std::vector<Read>& reads,
                             const KmerCountConfig& config,
                             KmerCountStats* stats) {
  CounterSession session(config);
  // One AddBatch per thread over a contiguous slice, so each thread runs
  // one Pass1Scanner.
  const unsigned threads = MakePlan(config).threads;
  ThreadPool pool(threads);
  pool.Run(threads, [&](uint32_t t) {
    const size_t begin = reads.size() * t / threads;
    const size_t end = reads.size() * (t + 1) / threads;
    session.AddBatch(reads.data() + begin, end - begin);
  });
  return session.Finish(stats);
}

MerCounts CountCanonicalMersSerial(const std::vector<Read>& reads,
                                   const KmerCountConfig& config,
                                   KmerCountStats* stats) {
  PPA_CHECK(config.mer_length >= 1 && config.mer_length <= kMaxMerLength);
  PPA_CHECK(config.num_workers >= 1);
  Timer timer;
  const uint32_t W = config.num_workers;

  uint64_t total_bases = 0;
  uint64_t total_windows = 0;
  std::unordered_map<uint64_t, uint32_t, IdHash> counts;
  KmerWindow window(config.mer_length);
  for (const Read& read : reads) {
    total_bases += read.bases.size();
    ScanCanonicalMers(read, window, [&](uint64_t code) {
      ++total_windows;
      // Saturate like the sharded tables so the bit-identical contract
      // holds even in the extreme-coverage regime.
      uint32_t& count = counts[code];
      if (count != UINT32_MAX) ++count;
    });
  }

  MerCounts result(W);
  for (const auto& [code, count] : counts) {
    if (count >= config.coverage_threshold) {
      result[PartitionOf(code, W)].emplace_back(code, count);
    }
  }

  if (stats != nullptr) {
    *stats = KmerCountStats{};
    stats->shards = 1;
    stats->threads = 1;
    stats->total_bases = total_bases;
    stats->total_windows = total_windows;
    stats->distinct_mers = counts.size();
    for (uint32_t d = 0; d < W; ++d) stats->surviving_mers += result[d].size();
    stats->pass2_seconds = timer.Seconds();
  }
  return result;
}

RunStats MerCountRunStats(const KmerCountStats& stats, uint32_t num_workers,
                          const std::string& job_name) {
  RunStats run;
  run.job_name = job_name;
  run.wall_seconds = stats.pass1_seconds + stats.pass2_seconds;

  // The base-scan cost has no per-worker measurement (hash sharding
  // balances it to first order), so it is split evenly, with the remainder
  // on the low workers so totals stay exact.
  auto even_share = [num_workers](uint64_t total, uint32_t w) {
    return total / num_workers + (w < total % num_workers ? 1 : 0);
  };
  // Measured shard loads folded into worker slots (shard s -> s % W); this
  // preserves real shard imbalance for the cluster model's skew estimate.
  auto fold_shards = [&](const std::vector<uint64_t>& per_shard) {
    std::vector<uint64_t> folded(num_workers, 0);
    for (size_t s = 0; s < per_shard.size(); ++s) {
      folded[s % num_workers] += per_shard[s];
    }
    return folded;
  };
  const std::vector<uint64_t> worker_windows = fold_shards(stats.shard_windows);

  // Map/shuffle superstep: one message per super-k-mer record, with the
  // measured chunk payload as the byte volume.
  SuperstepStats map_ss;
  map_ss.superstep = 0;
  map_ss.active_vertices = stats.distinct_mers;
  map_ss.messages_sent = stats.shuffled_messages;
  map_ss.message_bytes = stats.shuffled_bytes;
  map_ss.compute_ops = stats.total_bases + stats.total_windows;
  map_ss.worker_messages = fold_shards(stats.shard_messages);
  map_ss.worker_bytes = fold_shards(stats.shard_bytes);
  map_ss.worker_ops.assign(num_workers, 0);
  for (uint32_t w = 0; w < num_workers; ++w) {
    map_ss.worker_ops[w] =
        even_share(stats.total_bases, w) + worker_windows[w];
  }
  run.supersteps.push_back(std::move(map_ss));

  // Reduce superstep: one table probe per window; survivors come out.
  SuperstepStats reduce_ss;
  reduce_ss.superstep = 1;
  reduce_ss.active_vertices = stats.surviving_mers;
  reduce_ss.compute_ops = stats.total_windows;
  reduce_ss.worker_messages.assign(num_workers, 0);
  reduce_ss.worker_bytes.assign(num_workers, 0);
  reduce_ss.worker_ops = worker_windows;
  run.supersteps.push_back(std::move(reduce_ss));
  return run;
}

// ---------------------------------------------------------------------------
// ShardCounterBank: the one place a chunk becomes table counts.
// ---------------------------------------------------------------------------

struct ShardCounterBank::Rep {
  int mer_length = 0;
  // Per shard, canonical mer code -> count (at least 1, so never the
  // table's empty marker).
  std::vector<FlatTable<uint64_t, IdHash>> tables;
  std::vector<uint64_t> chunks;
  std::vector<uint64_t> windows;
};

ShardCounterBank::ShardCounterBank(int mer_length, uint32_t num_shards)
    : rep_(std::make_unique<Rep>()) {
  PPA_CHECK(mer_length >= 1 && mer_length <= kMaxMerLength);
  PPA_CHECK(num_shards >= 1);
  rep_->mer_length = mer_length;
  // Chunks arrive with no per-shard window total to size from; start each
  // table at 2048 slots and let it grow with the data.
  rep_->tables.resize(num_shards);
  for (auto& table : rep_->tables) table.Reserve(1024);
  rep_->chunks.assign(num_shards, 0);
  rep_->windows.assign(num_shards, 0);
}

ShardCounterBank::~ShardCounterBank() = default;

uint32_t ShardCounterBank::num_shards() const {
  return static_cast<uint32_t>(rep_->tables.size());
}

bool ShardCounterBank::AddChunk(uint32_t shard, const uint8_t* records,
                                size_t size, uint64_t windows,
                                std::string* error) {
  if (shard >= rep_->tables.size()) {
    *error = "chunk for shard " + std::to_string(shard) + " but the bank has " +
             std::to_string(rep_->tables.size()) + " shards";
    return false;
  }
  // A partially counted table is fine on failure: the caller drops the
  // whole count (a worker kills the connection, a session throws).
  auto& table = rep_->tables[shard];
  uint64_t decoded = 0;
  if (!DecodeSuperkmers(records, size, rep_->mer_length, [&](uint64_t code) {
        uint32_t& count = table[code];
        if (count != UINT32_MAX) ++count;
        ++decoded;
      })) {
    *error = "malformed super-k-mer bytes in a chunk for shard " +
             std::to_string(shard);
    return false;
  }
  if (decoded != windows) {
    *error = "chunk for shard " + std::to_string(shard) + " declares " +
             std::to_string(windows) + " windows but decodes to " +
             std::to_string(decoded);
    return false;
  }
  rep_->chunks[shard] += 1;
  rep_->windows[shard] += windows;
  return true;
}

bool ShardCounterBank::AddChunkPayload(uint32_t shard, const uint8_t* data,
                                       size_t size, std::string* error) {
  size_t pos = 0;
  uint64_t windows = 0, records = 0;
  if (!GetVarint64(data, size, &pos, &windows) ||
      !GetVarint64(data, size, &pos, &records)) {
    *error = "malformed Pass1Chunk payload (" + std::to_string(size) +
             " bytes) for shard " + std::to_string(shard);
    return false;
  }
  return AddChunk(shard, data + pos, size - pos, windows, error);
}

uint64_t ShardCounterBank::chunks(uint32_t shard) const {
  PPA_CHECK(shard < rep_->chunks.size());
  return rep_->chunks[shard];
}

uint64_t ShardCounterBank::windows(uint32_t shard) const {
  PPA_CHECK(shard < rep_->windows.size());
  return rep_->windows[shard];
}

uint64_t ShardCounterBank::distinct(uint32_t shard) const {
  PPA_CHECK(shard < rep_->tables.size());
  return rep_->tables[shard].size();
}

uint64_t ShardCounterBank::table_bytes(uint32_t shard) const {
  PPA_CHECK(shard < rep_->tables.size());
  return rep_->tables[shard].capacity() *
         (sizeof(uint64_t) + sizeof(uint32_t));
}

MerCounts ShardCounterBank::Finalize(uint32_t shard,
                                     uint32_t coverage_threshold,
                                     uint32_t num_workers) {
  PPA_CHECK(shard < rep_->tables.size());
  PPA_CHECK(num_workers >= 1);
  MerCounts out(num_workers);
  rep_->tables[shard].ForEach([&](uint64_t code, uint32_t count) {
    if (count >= coverage_threshold) {
      out[PartitionOf(code, num_workers)].emplace_back(code, count);
    }
  });
  return out;
}

}  // namespace ppa
