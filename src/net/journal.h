// Coordinator-side chunk journal for distributed counting.
//
// Every pass-1 chunk the coordinator ships to a worker is appended here
// first, keyed by shard, so that when a worker dies mid-run the chunks of
// its shards can be replayed — idempotently, because a dead worker's
// partial counts die with its connection (the worker's ShardCounterBank is
// per-connection state), so the replacement owner rebuilds each orphaned
// shard from zero and no chunk is ever counted twice.
//
// Memory: resident chunks are charged pinned against the pipeline's shared
// MemoryBudget when one is supplied (they drain only at end of run, which
// is exactly what pinned charges model); chunks that no longer fit
// overflow to a CRC-framed spill file per shard (spill/spill.h format) via
// the run's SpillManager, or a journal-owned one when the run has no spill
// context. Without a shared budget a fallback resident cap applies so the
// journal cannot silently eat the heap. The spill manager's ledger counts
// the overflow records and bytes of each shard file, and its Replay
// refuses a file whose record count differs from the appended one. The
// journal deletes its overflow files when it dies (the ledger stays).
//
// Thread-safe. net::FleetCounter (net/fleet_counter.h) appends and replays
// to the fleet under its routing lock, which is what makes journal-append +
// send atomic with respect to recovery replay; its end-of-run reads and the
// degraded-local replay rely on the journal's own lock. The fleet, and with
// it the journal, its overflow files and its pinned budget charge, ends
// when counting finishes.
#ifndef PPA_NET_JOURNAL_H_
#define PPA_NET_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spill/spill.h"

namespace ppa {
namespace net {

class ChunkJournal {
 public:
  struct Options {
    uint32_t num_shards = 0;
    /// Shared pipeline budget; resident chunks are charged pinned and
    /// released when the journal dies. Null = use the fallback cap below.
    MemoryBudget* budget = nullptr;
    /// Where overflow goes. Null = the journal lazily owns a private
    /// SpillManager (created on first overflow, so failure-free in-memory
    /// runs never touch disk).
    SpillManager* spill = nullptr;
    /// Resident byte cap when no shared budget is supplied.
    uint64_t fallback_budget_bytes = 256ull << 20;
  };

  explicit ChunkJournal(const Options& options);
  ~ChunkJournal();

  ChunkJournal(const ChunkJournal&) = delete;
  ChunkJournal& operator=(const ChunkJournal&) = delete;

  /// Records one chunk payload (the kCounterChunk body minus the shard
  /// varint) for `shard`. The payload is copied; the caller's buffer is
  /// untouched.
  void Append(uint32_t shard, const std::vector<uint8_t>& payload);

  /// Streams every chunk recorded for `shard` to `fn`, spilled chunks
  /// first (after barriering pending journal writes), then resident ones.
  /// Order across chunks is not the append order, which is fine: counting
  /// is commutative. False with a diagnostic naming the spill file on its
  /// corruption or a short or long record stream, or on write failure.
  bool Replay(uint32_t shard,
              const std::function<void(const std::vector<uint8_t>&)>& fn,
              std::string* error);

  uint64_t chunks(uint32_t shard) const;
  uint64_t total_chunks() const;
  uint64_t total_bytes() const;
  uint64_t spilled_bytes() const;  // overflow bytes, from the ledger

 private:
  struct Shard {
    std::vector<std::vector<uint8_t>> resident;
    uint32_t spill_file = 0;
    bool has_spill_file = false;
    uint64_t chunks = 0;
  };

  SpillManager* SpillLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  std::unique_ptr<SpillManager> owned_spill_;
  uint64_t charged_bytes_ = 0;  // pinned against options_.budget
  uint64_t resident_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_chunks_ = 0;
};

}  // namespace net
}  // namespace ppa

#endif  // PPA_NET_JOURNAL_H_
