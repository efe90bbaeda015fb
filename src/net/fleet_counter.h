// Coordinator side of distributed counting: ships a CounterSession's sealed
// pass-1 chunks to the shard worker fleet and collects the survivor counts
// back. With net/worker.cpp, the worker side, it holds both ends of every
// kCounter* message (wire.h).
//
// Leases: shard s starts on worker s % N. Every chunk is journaled
// (net/journal.h) before it is sent, so when a worker dies its shards move
// to survivors and each orphaned shard's journal is replayed to its new
// owner — exact, because a dead worker's partial counts die with its
// connection. When the last worker dies the fleet degrades: the journal is
// then every chunk's only consumer, and Collect rebuilds the unsealed
// shards in a local ShardCounterBank (dbg/kmer_counter.h), the decoder,
// coverage filter and routing the workers run. Either way the output is
// bit-identical to the in-process counter.
//
// Locking: route_mu_ serializes {journal append, lease lookup, send} in
// Route against recovery, which is what keeps a journaled-but-unsent chunk
// from being both replayed by recovery and then sent again by its scanner.
// It also guards the lease and recovery state below it.
#ifndef PPA_NET_FLEET_COUNTER_H_
#define PPA_NET_FLEET_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbg/kmer_counter.h"
#include "net/journal.h"

namespace ppa {

class ThreadPool;

namespace net {

class FleetCounter {
 public:
  /// The fleet half of a counting job over config.net, or nullptr when
  /// config.net is null or has no workers. Opens the counter on every
  /// worker (kCounterOpen) and sets up the journal, which shares
  /// config.spill's budget and spill manager when there is one. `wake`
  /// runs whenever Stopped() turns true, so the session can wake scanners
  /// parked on its byte admission.
  static std::unique_ptr<FleetCounter> Open(const KmerCountConfig& config,
                                            uint32_t num_shards,
                                            std::function<void()> wake);

  FleetCounter(const FleetCounter&) = delete;
  FleetCounter& operator=(const FleetCounter&) = delete;

  /// True once the journal failed or every worker died: no more acks will
  /// come, so admission must stop waiting for them.
  bool Stopped() const {
    return failed_.load(std::memory_order_relaxed) ||
           degraded_.load(std::memory_order_relaxed);
  }

  /// Journals one serialized chunk of shard s, then ships it to the
  /// shard's lease owner. Thread-safe. `done` (may be empty) runs exactly
  /// once, when the chunk's bytes may be released: on the owner's ack,
  /// after a failed send (recovery replays the chunk from the journal), or
  /// at once when the fleet has stopped.
  void Route(uint32_t s, const std::vector<uint8_t>& payload,
             std::function<void()> done);

  /// Pass 2, after every routed chunk was acked: finishes the fleet in
  /// rounds and returns each shard's survivors by output partition. Every
  /// worker's shard summary must match the journal's chunk count and
  /// shard_windows[s], the windows routed to shard s. Fills distinct[s],
  /// and table_bytes[s] for a shard a degraded fleet rebuilt in this
  /// process (a worker's table stays in the worker). Throws
  /// std::runtime_error on a failure recovery cannot mend.
  std::vector<MerCounts> Collect(const std::vector<uint64_t>& shard_windows,
                                 ThreadPool& pool,
                                 std::vector<uint64_t>* distinct,
                                 std::vector<uint64_t>* table_bytes);

  /// Sets the distributed and recovery fields of *stats.
  void FillStats(KmerCountStats* stats) const;

 private:
  FleetCounter(const KmerCountConfig& config, uint32_t num_shards,
               std::function<void()> wake);

  void RecoverLocked();
  void CollectFrom(uint32_t w, const std::vector<uint64_t>& shard_windows,
                   std::vector<MerCounts>* shard_out,
                   std::vector<uint64_t>* distinct);
  void RebuildLocally(ThreadPool& pool, std::vector<MerCounts>* shard_out,
                      std::vector<uint64_t>* distinct,
                      std::vector<uint64_t>* table_bytes);
  bool AllSealed() const;

  NetContext& net_;
  const int mer_length_;
  const uint32_t num_shards_;
  const uint32_t out_workers_;
  const uint32_t coverage_threshold_;
  const std::function<void()> wake_;
  ChunkJournal journal_;

  std::mutex route_mu_;
  std::vector<uint32_t> shard_owner_;  // current lease; starts at s % N
  std::vector<bool> worker_live_;
  // One byte per shard, not vector<bool>: the degraded-local rebuild seals
  // shards from parallel pool tasks, and packed bits would make
  // neighbouring shards share a word.
  std::vector<uint8_t> shard_sealed_;  // results collected and reconciled
  uint32_t live_workers_;
  std::string error_;  // set before failed_
  std::atomic<bool> failed_{false};    // the journal itself failed
  std::atomic<bool> degraded_{false};  // fleet exhausted; finish locally
  std::atomic<uint64_t> sent_bytes_{0};
  uint64_t received_bytes_ = 0;
  uint64_t worker_failures_ = 0;
  uint64_t shards_reassigned_ = 0;
  uint64_t chunks_replayed_ = 0;
};

}  // namespace net
}  // namespace ppa

#endif  // PPA_NET_FLEET_COUNTER_H_
