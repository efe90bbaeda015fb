#include "net/fleet_counter.h"

#include <stdexcept>
#include <utility>

#include "net/coordinator.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "spill/spill.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/varint.h"

namespace ppa {
namespace net {

namespace {

// The journal shares the run's memory budget and spill manager when the
// run has a budget (and so a spill context); otherwise it caps itself and
// owns its overflow.
ChunkJournal::Options JournalOptions(SpillContext* spill,
                                     uint32_t num_shards) {
  ChunkJournal::Options options;
  options.num_shards = num_shards;
  if (spill != nullptr) {
    options.budget = &spill->budget;
    options.spill = &spill->manager;
  }
  return options;
}

// The kCounterChunk body of one journal payload of shard s.
std::vector<uint8_t> ChunkBody(uint32_t s,
                               const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> body;
  body.reserve(payload.size() + 8);
  PutVarint64(&body, s);
  body.insert(body.end(), payload.begin(), payload.end());
  return body;
}

[[noreturn]] void Fail(const std::string& why) {
  throw std::runtime_error("distributed counting failed: " + why);
}

}  // namespace

std::unique_ptr<FleetCounter> FleetCounter::Open(
    const KmerCountConfig& config, uint32_t num_shards,
    std::function<void()> wake) {
  if (config.net == nullptr || config.net->num_workers() == 0) return nullptr;
  return std::unique_ptr<FleetCounter>(
      new FleetCounter(config, num_shards, std::move(wake)));
}

FleetCounter::FleetCounter(const KmerCountConfig& config, uint32_t num_shards,
                           std::function<void()> wake)
    : net_(*config.net),
      mer_length_(config.mer_length),
      num_shards_(num_shards),
      out_workers_(config.num_workers),
      coverage_threshold_(config.coverage_threshold),
      wake_(std::move(wake)),
      journal_(JournalOptions(config.spill, num_shards)),
      shard_owner_(num_shards),
      worker_live_(net_.num_workers(), true),
      shard_sealed_(num_shards, 0),
      live_workers_(net_.num_workers()) {
  for (uint32_t s = 0; s < num_shards; ++s) {
    shard_owner_[s] = s % live_workers_;
  }
  // Configure every worker's bank before any chunk can arrive; frames on
  // one connection are ordered, so no extra round trip is needed.
  std::vector<uint8_t> open;
  PutVarint64(&open, static_cast<uint64_t>(mer_length_));
  PutVarint64(&open, num_shards_);
  PutVarint64(&open, out_workers_);
  PutVarint64(&open, coverage_threshold_);
  for (uint32_t w = 0; w < net_.num_workers(); ++w) {
    net_.client(w).SendControl(MsgType::kCounterOpen, open);
  }
}

void FleetCounter::Route(uint32_t s, const std::vector<uint8_t>& payload,
                         std::function<void()> done) {
  if (!failed_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> route_lock(route_mu_);
    journal_.Append(s, payload);
    if (!degraded_.load(std::memory_order_relaxed)) {
      std::vector<uint8_t> body = ChunkBody(s, payload);
      sent_bytes_.fetch_add(body.size(), std::memory_order_relaxed);
      // SendData runs `done` exactly once, on ack or on failure. A failed
      // send needs no retry here: the chunk is journaled, so recovery's
      // replay to the next owner — or the degraded-local rebuild —
      // delivers it.
      if (!net_.client(shard_owner_[s])
               .SendData(MsgType::kCounterChunk, std::move(body),
                         std::move(done))) {
        RecoverLocked();
      }
      return;
    }
    // Fleet exhausted (possibly while this thread waited on route_mu_):
    // the journal is the chunk's only consumer now.
  }
  if (done) done();
}

// Requires route_mu_. Sweeps the fleet for newly dead workers, moves their
// shard leases to survivors, and replays the journal of every orphaned
// unsealed shard to its new owner. Loops because a replay can itself reveal
// another dead worker; when the last worker dies the fleet degrades.
void FleetCounter::RecoverLocked() {
  PPA_TRACE_SPAN("net.recover", "net");
  for (;;) {
    std::vector<uint32_t> newly_dead;
    for (uint32_t w = 0; w < net_.num_workers(); ++w) {
      if (worker_live_[w] && net_.client(w).failed()) {
        worker_live_[w] = false;
        --live_workers_;
        ++worker_failures_;
        newly_dead.push_back(w);
        PPA_LOG(kWarning) << "distributed counting: "
                          << net_.client(w).error()
                          << "; recovering its shards";
      }
    }
    if (newly_dead.empty()) return;
    if (live_workers_ == 0) {
      degraded_.store(true, std::memory_order_relaxed);
      PPA_LOG(kWarning) << "distributed counting: every worker is dead; "
                           "degrading to local counting from the journal";
      wake_();
      return;
    }
    std::vector<uint32_t> live;
    for (uint32_t w = 0; w < net_.num_workers(); ++w) {
      if (worker_live_[w]) live.push_back(w);
    }
    std::vector<uint32_t> orphaned;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (worker_live_[shard_owner_[s]]) continue;
      shard_owner_[s] = live[s % live.size()];
      // Sealed shards already have their results collected and verified;
      // the lease only moves so future lookups stay valid.
      if (shard_sealed_[s]) continue;
      ++shards_reassigned_;
      orphaned.push_back(s);
    }
    for (const uint32_t s : orphaned) {
      if (journal_.chunks(s) == 0) continue;
      PPA_TRACE_SPAN_V("net.replay", "net", journal_.chunks(s));
      WorkerClient& client = net_.client(shard_owner_[s]);
      uint64_t replayed = 0;
      std::string jerr;
      const bool ok = journal_.Replay(
          s,
          [&](const std::vector<uint8_t>& payload) {
            std::vector<uint8_t> body = ChunkBody(s, payload);
            sent_bytes_.fetch_add(body.size(), std::memory_order_relaxed);
            // No done callback: the original send's accounting was already
            // settled (acked, or drained by the owner's Fail).
            client.SendData(MsgType::kCounterChunk, std::move(body), nullptr);
            ++replayed;
          },
          &jerr);
      chunks_replayed_ += replayed;
      if (!ok) {
        // The journal itself is damaged — that is not recoverable.
        if (!failed_.load(std::memory_order_relaxed)) {
          error_ = jerr;
          failed_.store(true, std::memory_order_relaxed);
        }
        wake_();
        return;
      }
    }
  }
}

bool FleetCounter::AllSealed() const {
  for (const uint8_t sealed : shard_sealed_) {
    if (!sealed) return false;
  }
  return true;
}

std::vector<MerCounts> FleetCounter::Collect(
    const std::vector<uint64_t>& shard_windows, ThreadPool& pool,
    std::vector<uint64_t>* distinct, std::vector<uint64_t>* table_bytes) {
  std::vector<MerCounts> shard_out(num_shards_, MerCounts(out_workers_));
  // A shard nothing was routed to has nothing to collect.
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (journal_.chunks(s) == 0) shard_sealed_[s] = true;
  }
  // Collection runs in rounds: recover any dead workers (reassign their
  // leases, replay their shards' journals to survivors), finalize the live
  // fleet, and collect until every shard is sealed against the ledger. A
  // worker that dies mid-collection loses only its unsealed staging — the
  // next round rebuilds those shards on a new owner. Each of the N workers
  // can die at most once, so N + 2 rounds bound the loop; a fleet that
  // somehow keeps failing without shrinking is refused below rather than
  // spun on.
  const uint32_t N = net_.num_workers();
  const std::vector<uint8_t> empty;
  for (uint32_t round = 0; round < N + 2; ++round) {
    {
      std::lock_guard<std::mutex> route_lock(route_mu_);
      if (!failed_.load(std::memory_order_relaxed)) RecoverLocked();
      if (failed_.load(std::memory_order_relaxed)) Fail(error_);
    }
    if (degraded_.load(std::memory_order_relaxed) || AllSealed()) break;
    // Tell every live worker to finalize before collecting from any, so
    // their filter/route work overlaps. Workers report each shard at most
    // once across rounds, so repeats only pick up newly replayed shards.
    for (uint32_t w = 0; w < N; ++w) {
      if (worker_live_[w]) {
        net_.client(w).SendControl(MsgType::kCounterFinish, empty);
      }
    }
    for (uint32_t w = 0; w < N; ++w) {
      if (worker_live_[w]) CollectFrom(w, shard_windows, &shard_out, distinct);
    }
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    RebuildLocally(pool, &shard_out, distinct, table_bytes);
  }
  if (!AllSealed()) {
    Fail("collection did not converge after repeated worker failures");
  }
  return shard_out;
}

// Reads worker w's answer to one kCounterFinish. Result slices are staged
// per shard and commit to shard_out only when the shard's summary arrives
// and matches the ledger. If the worker dies first, the staged slices are
// discarded — lazy failure detection: the next round's recovery sweep
// rebuilds its unsealed shards elsewhere from the journal.
void FleetCounter::CollectFrom(uint32_t w,
                               const std::vector<uint64_t>& shard_windows,
                               std::vector<MerCounts>* shard_out,
                               std::vector<uint64_t>* distinct) {
  WorkerClient& client = net_.client(w);
  const std::string who = "worker '" + client.endpoint() + "' ";
  std::vector<MerCounts> staging(num_shards_);
  for (;;) {
    Frame frame;
    if (!client.NextResponse(&frame)) return;
    received_bytes_ += frame.body.size() + 1;
    const uint8_t* data = frame.body.data();
    const size_t size = frame.body.size();
    size_t pos = 0;
    uint64_t sh = 0;
    switch (frame.type) {
      case MsgType::kCounterResult: {
        uint64_t part = 0, pairs = 0;
        if (!GetVarint64(data, size, &pos, &sh) ||
            !GetVarint64(data, size, &pos, &part) ||
            !GetVarint64(data, size, &pos, &pairs)) {
          Fail(who + "sent a malformed result header");
        }
        if (sh >= num_shards_ || part >= out_workers_ || shard_sealed_[sh] ||
            shard_owner_[sh] != w) {
          Fail(who + "sent a result for shard " + std::to_string(sh) +
               " partition " + std::to_string(part) + " it does not own");
        }
        const size_t kPairBytes = sizeof(uint64_t) + sizeof(uint32_t);
        if (pairs != (size - pos) / kPairBytes ||
            (size - pos) % kPairBytes != 0) {
          Fail(who + "result pair count disagrees with its payload size");
        }
        if (staging[sh].empty()) staging[sh].resize(out_workers_);
        auto& slice = staging[sh][part];
        slice.reserve(slice.size() + pairs);
        for (uint64_t i = 0; i < pairs; ++i) {
          uint64_t code = 0;
          for (int b = 0; b < 8; ++b) {
            code |= static_cast<uint64_t>(data[pos++]) << (8 * b);
          }
          uint32_t count = 0;
          for (int b = 0; b < 4; ++b) {
            count |= static_cast<uint32_t>(data[pos++]) << (8 * b);
          }
          slice.emplace_back(code, count);
        }
        break;
      }
      case MsgType::kCounterShard: {
        uint64_t chunks = 0, windows = 0, shard_distinct = 0;
        if (!GetVarint64(data, size, &pos, &sh) ||
            !GetVarint64(data, size, &pos, &chunks) ||
            !GetVarint64(data, size, &pos, &windows) ||
            !GetVarint64(data, size, &pos, &shard_distinct)) {
          Fail(who + "sent a malformed shard summary");
        }
        if (sh >= num_shards_ || shard_sealed_[sh] || shard_owner_[sh] != w) {
          Fail(who + "summarized shard " + std::to_string(sh) +
               " it does not own");
        }
        // Reconcile the ledger: every chunk and window routed to the shard
        // must have been decoded and counted by exactly its owner. A live
        // worker answering from a fully-delivered (or fully-replayed)
        // stream has no excuse for a mismatch — it means records were lost
        // or doubled, so the result is refused.
        const uint64_t shipped = journal_.chunks(sh);
        if (chunks != shipped || windows != shard_windows[sh]) {
          Fail("shard " + std::to_string(sh) + " ledger mismatch: shipped " +
               std::to_string(shipped) + " chunks / " +
               std::to_string(shard_windows[sh]) + " windows, " + who +
               "counted " + std::to_string(chunks) + " / " +
               std::to_string(windows));
        }
        if (!staging[sh].empty()) (*shard_out)[sh] = std::move(staging[sh]);
        (*distinct)[sh] = shard_distinct;
        shard_sealed_[sh] = true;
        break;
      }
      case MsgType::kCounterDone:
        return;
      default:
        Fail(who + "sent unexpected " + std::string(MsgTypeName(frame.type)) +
             " during counter collection");
    }
  }
}

// The whole fleet is gone, but the journal holds every chunk ever routed:
// rebuild the unsealed shards through the workers' own bank.
void FleetCounter::RebuildLocally(ThreadPool& pool,
                                  std::vector<MerCounts>* shard_out,
                                  std::vector<uint64_t>* distinct,
                                  std::vector<uint64_t>* table_bytes) {
  PPA_TRACE_SPAN("net.degraded_local", "net");
  ShardCounterBank bank(mer_length_, num_shards_);
  std::vector<std::string> errors(num_shards_);
  pool.Run(num_shards_, [&](uint32_t s) {
    if (shard_sealed_[s]) return;
    std::string& error = errors[s];
    journal_.Replay(
        s,
        [&](const std::vector<uint8_t>& payload) {
          if (error.empty()) {
            bank.AddChunkPayload(s, payload.data(), payload.size(), &error);
          }
        },
        &error);
    if (!error.empty()) {
      error = "degraded-local replay of shard " + std::to_string(s) + ": " +
              error;
      return;
    }
    (*distinct)[s] = bank.distinct(s);
    (*table_bytes)[s] = bank.table_bytes(s);
    (*shard_out)[s] = bank.Finalize(s, coverage_threshold_, out_workers_);
    shard_sealed_[s] = true;
  });
  for (const std::string& error : errors) {
    if (!error.empty()) Fail(error);
  }
}

void FleetCounter::FillStats(KmerCountStats* stats) const {
  stats->distributed_workers = net_.num_workers();
  stats->net_chunks = journal_.total_chunks();
  stats->net_sent_bytes = sent_bytes_.load();
  stats->net_received_bytes = received_bytes_;
  // Quiescent by now: scanners are joined and collection is done, so the
  // recovery counters have no concurrent writer.
  stats->worker_failures = worker_failures_;
  stats->shards_reassigned = shards_reassigned_;
  stats->chunks_replayed = chunks_replayed_;
  stats->net_journal_bytes = journal_.total_bytes();
  stats->net_journal_spilled_bytes = journal_.spilled_bytes();
  stats->net_degraded = degraded_.load(std::memory_order_relaxed);
}

}  // namespace net
}  // namespace ppa
