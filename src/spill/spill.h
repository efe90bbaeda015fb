// External spill subsystem: disk-backed overflow for pipeline chunk queues.
//
// One setting turns it on: a nonzero memory budget (AssemblerOptions::
// memory_budget_bytes, ppa_assemble --memory-budget-bytes). With it the run
// gets one SpillContext, shared by every MapReduce job, the fleet's chunk
// journal and the k-mer counter; without it nothing spills and no context,
// directory or writer thread exists.
//
// Two producers spill: the MapReduce shuffle (pregel/mapreduce.h), whose
// sealed emit chunks hold a data volume proportional to the input between
// the map and the reduce, and the fleet's chunk journal (net/journal.h),
// which sends its overflow here. The k-mer counter's pass-1 queues
// (dbg/kmer_counter.h) never spill: their byte admission bounds them, and
// the budget caps that bound. This subsystem gives the producers a
// shared external store, shaped like the per-shard run files of disk-based
// k-mer counters (yak, KMC):
//
//   * SpillManager owns a unique temporary directory and a small pool of
//     async writer threads. Producers register named files and append
//     records; appends are non-blocking (the backlog is accounted by the
//     producer's own byte bound) and per-file write order equals
//     submission order. A consumer that reads a file once discards it
//     right after its replay; the directory, with whatever is left in it,
//     is removed on destruction — success, early Finish, and exception
//     unwinds all converge there.
//
//   * SpillManager is also the one spill ledger. Append counts each file's
//     records and payload bytes; Replay reads a file back in write order
//     and refuses a corrupt record, a record its consumer rejects, or a
//     record count other than the number appended, with one diagnostic
//     that names the file. Stats sums a consumer's files into the
//     SpillStats record (pregel/stats.h) the reports carry. Consumers keep
//     only their file ids and their own budget policy.
//
//   * Spill files are framed: an 8-byte magic, then per record a
//     varint payload length, a CRC-32 of the payload, and the payload.
//     SpillReader decodes one file and fails with a diagnostic on a
//     truncated record, bad magic, CRC mismatch, or a record length past
//     EOF; a file cut at a record boundary reads short, which Replay's
//     record count catches.
//
//   * MemoryBudget tracks resident chunk bytes pipeline-wide. The shuffle
//     and the journal pin each chunk they keep in memory (TryChargePinned)
//     and spill a chunk that does not fit instead of growing; the shuffle
//     also charges each queued spill write until it completes
//     (ChargeBlocking), and pins a chunk only while one maximal spill
//     payload still fits beside it, so the peak stays within
//     max(budget, one chunk payload). Readback working memory (one
//     destination or one journal shard at a time) is intentionally outside
//     the budget, like the count tables.
//
// The reduce side reads each destination's records back in their
// in-memory order, so partitions and contigs are bit-identical to a run
// without a budget, which stays the oracle.
#ifndef PPA_SPILL_SPILL_H_
#define PPA_SPILL_SPILL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "pregel/stats.h"
#include "util/logging.h"

namespace ppa {

/// Pipeline-wide accounting of resident (sealed but unconsumed) shuffle and
/// journal chunk bytes. Thread-safe. The budget is nonzero: a run without
/// one has no MemoryBudget at all. Each charge and release covers one
/// sealed chunk (tens of kilobytes), so a mutex is plenty.
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t budget_bytes) : budget_(budget_bytes) {
    PPA_CHECK(budget_ != 0);
    // Live gauges for the heartbeat / trace. Last-writer-wins across
    // budgets, but a pipeline run owns exactly one.
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    resident_gauge_ = reg.GetGauge("mem.resident_bytes");
    peak_gauge_ = reg.GetGauge("mem.peak_resident_bytes");
    reg.GetGauge("mem.budget_bytes")->Set(budget_);
  }

  uint64_t budget_bytes() const { return budget_; }

  /// Charges `n` bytes that will stay resident for a whole job (the
  /// shuffle's kept-in-memory chunks, consumed only by the reduce) iff they
  /// fit under the budget with `reserve` bytes still free beside them —
  /// check and charge under one lock acquisition, so concurrent producers
  /// cannot each see room and then collectively blow the budget. Returns
  /// false (charging nothing) when they do not fit. Pinned bytes are
  /// excluded from ChargeBlocking's wait condition — they cannot drain
  /// while the charger's own phase is still running, so waiting on them
  /// would deadlock. A producer whose refused chunks go through
  /// ChargeBlocking passes its largest such charge as `reserve`: pins then
  /// never exceed budget - reserve, so the unconditional charge
  /// ChargeBlocking grants once only pinned bytes remain still fits.
  bool TryChargePinned(uint64_t n, uint64_t reserve) {
    std::lock_guard<std::mutex> lock(mu_);
    if (resident_ + n + reserve > budget_) return false;
    pinned_ += n;
    ChargeLocked(n);
    return true;
  }

  /// Charges `n` once it fits under the budget — or unconditionally when
  /// no drainable (unpinned) bytes remain, so progress never depends on
  /// bytes that only the caller's own completion can free. This is the
  /// backpressure for spill writer backlogs: producers stall on disk drain
  /// instead of growing the backlog.
  void ChargeBlocking(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    released_.wait(lock, [&] {
      return resident_ == pinned_ || resident_ + n <= budget_;
    });
    ChargeLocked(n);
  }

  void Release(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    resident_ -= n;
    resident_gauge_->Set(resident_);
    released_.notify_all();
  }

  void ReleasePinned(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    pinned_ -= n;
    resident_ -= n;
    resident_gauge_->Set(resident_);
    released_.notify_all();
  }

  uint64_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resident_;
  }

  uint64_t peak_resident_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  void ChargeLocked(uint64_t n) {
    resident_ += n;
    if (resident_ > peak_) peak_ = resident_;
    resident_gauge_->Set(resident_);
    peak_gauge_->SetMax(peak_);
  }

  obs::Gauge* resident_gauge_ = nullptr;
  obs::Gauge* peak_gauge_ = nullptr;
  uint64_t budget_;
  mutable std::mutex mu_;
  std::condition_variable released_;
  uint64_t resident_ = 0;
  uint64_t pinned_ = 0;  // subset of resident_ that drains only at job end
  uint64_t peak_ = 0;
};

/// Decodes one spill file's records in write order. SpillManager::Replay
/// reads through it; tests and fuzzers drive it directly.
///
///   SpillReader reader(path);
///   std::vector<uint8_t> payload;
///   while (reader.Next(&payload)) { ...consume payload... }
///   if (!reader.ok()) { ...reader.error() says what is corrupt... }
///
/// A missing file reads as zero records with ok() == true. Every
/// corruption mode — truncated file, bad magic, CRC mismatch, record
/// length past EOF — turns Next() false with ok() == false and a
/// path/record/offset diagnostic in error(), so a consumer can never
/// mistake a damaged file for a short one. A file cut at a record boundary
/// does read as a short stream; Replay's record count catches that.
class SpillReader {
 public:
  explicit SpillReader(std::string path);
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  /// Fills `payload` with the next record; false at end of file or on
  /// corruption (distinguish with ok()).
  bool Next(std::vector<uint8_t>* payload);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  uint64_t records() const { return records_; }
  uint64_t bytes_read() const { return bytes_read_; }

  /// The 8-byte magic every spill file starts with.
  static const char kMagic[8];

 private:
  bool Fail(const std::string& what);

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t file_size_ = 0;
  uint64_t offset_ = 0;  // bytes consumed so far
  uint64_t records_ = 0;
  uint64_t bytes_read_ = 0;
  std::string error_;
};

/// Owns a unique temp directory of framed spill files, the async writer
/// pool that fills them, and the ledger of what each file holds.
///
/// Threading contract: Append never blocks on I/O (jobs queue to a writer
/// thread chosen by file id, so per-file order is submission order across
/// any number of producers). The producer's own byte accounting bounds the
/// backlog: a chunk's bytes stay "resident" until its `done` callback runs
/// on the writer thread. Sync() barriers all pending writes and flushes.
/// Append, Replay and Stats may run concurrently on distinct files.
///
/// Lifecycle contract: a consumer that replays a file once calls Discard
/// after its successful Replay, which closes and deletes the file at once,
/// so the directory holds only the files still waiting to be read. The
/// directory (and everything left in it) is removed by the destructor on
/// every path — normal completion, early destruction with writes still
/// queued (they are drained first so `done` callbacks always run), and
/// stack unwinding.
class SpillManager {
 public:
  struct Config {
    std::string parent_dir;      // empty = std::filesystem::temp_directory_path()
    unsigned writer_threads = 1; // clamped to >= 1
  };

  /// A Replay consumer: takes one record's payload, or returns false with
  /// the reason in *why to refuse it.
  using RecordFn = std::function<bool(const std::vector<uint8_t>& payload,
                                      std::string* why)>;

  SpillManager();  // defaults: system temp parent, one writer thread
  explicit SpillManager(const Config& config);
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Registers a spill file under `name` (sanitized to [A-Za-z0-9._-]).
  /// The file is created on its first Append.
  uint32_t NewFile(const std::string& name);

  /// Counts one record and its payload bytes against `file` and queues its
  /// framed append. `done`, if given, runs on the writer thread after the
  /// record's bytes have been handed to the OS (use it to release byte
  /// accounting). Payloads are moved, never copied.
  void Append(uint32_t file, std::vector<uint8_t> payload,
              std::function<void()> done = {});

  /// Blocks until every Append so far is written and flushed. Returns
  /// false (with the diagnostic in error()) if any write failed — never
  /// throws, so it is destructor-safe.
  bool Sync();

  /// Feeds `file`'s records to `fn` in write order. Call after Sync(), with
  /// no Append to `file` in flight. Returns false, with one diagnostic
  /// naming the file in *error, on a corrupt record, a record `fn` refuses,
  /// or a record count other than the number appended; records fed before
  /// the failure are not taken back, so the caller discards its partial
  /// result. A surplus record is counted but never fed. A file never
  /// appended to replays as zero records without touching the disk.
  bool Replay(uint32_t file, const RecordFn& fn, std::string* error);

  /// Closes and deletes `file` once its consumer is done with it. The
  /// ledger stays, so Stats reports the file as before; a later Append to
  /// it aborts. Call after Sync(), with no Append to `file` in flight.
  void Discard(uint32_t file);

  /// The ledger of `files`: records and payload bytes appended, files
  /// holding at least one record, and what Replay read back and verified.
  SpillStats Stats(const std::vector<uint32_t>& files) const;

  /// Filesystem path of `file`, for diagnostics (tests also use it to
  /// damage files).
  std::string FilePath(uint32_t file) const;

  const std::string& dir() const { return dir_; }
  std::string error() const;

 private:
  struct WriteJob {
    uint32_t file = 0;
    std::vector<uint8_t> payload;
    std::function<void()> done;
  };
  struct Writer {
    std::mutex mu;
    std::condition_variable cv;       // wakes the writer thread
    std::condition_variable drained;  // wakes Sync waiters
    std::deque<WriteJob> queue;
    size_t in_flight = 0;  // queued + currently being written
    bool stop = false;
    std::thread thread;
  };
  struct File {
    std::string path;
    std::FILE* stream = nullptr;  // opened by the writer on first append
    // The ledger. Producers on any thread append; Replay records what it
    // read back.
    std::atomic<uint64_t> records{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> replayed_records{0};
    std::atomic<uint64_t> replayed_bytes{0};
    std::atomic<bool> discarded{false};
  };

  File& FileAt(uint32_t file);
  void WriterLoop(unsigned w);
  void WriteRecord(File* file, const WriteJob& job);
  void RecordError(const std::string& what);

  std::string dir_;
  std::vector<std::unique_ptr<Writer>> writers_;

  // deque: stable element addresses while NewFile keeps appending.
  mutable std::mutex files_mu_;
  std::deque<File> files_;

  mutable std::mutex error_mu_;
  std::string error_;
  std::atomic<bool> failed_{false};
};

/// The spill wiring one pipeline run shares across every MapReduce job and
/// the fleet's chunk journal: the pipeline-wide budget (which also caps the
/// counter's queued-byte bound), and the local spill directory every
/// sealed chunk that leaves memory goes to.
struct SpillContext {
  MemoryBudget budget;
  SpillManager manager;

  SpillContext(uint64_t budget_bytes, const SpillManager::Config& config)
      : budget(budget_bytes), manager(config) {}
};

/// Builds the context for one run under a nonzero budget, or nullptr for
/// budget 0 (a run without a budget allocates nothing, not even the temp
/// directory).
std::unique_ptr<SpillContext> MakeSpillContext(const std::string& parent_dir,
                                               uint64_t budget_bytes);

}  // namespace ppa

#endif  // PPA_SPILL_SPILL_H_
