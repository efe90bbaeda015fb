#include "net/journal.h"

namespace ppa {
namespace net {

ChunkJournal::ChunkJournal(const Options& options)
    : options_(options), shards_(options.num_shards) {}

ChunkJournal::~ChunkJournal() {
  // The overflow files die with the journal: in the run's shared spill
  // manager they would otherwise outlive counting and sit on disk through
  // every later shuffle job. Discard wants the files' writes finished.
  std::vector<uint32_t> files;
  for (const Shard& s : shards_) {
    if (s.has_spill_file) files.push_back(s.spill_file);
  }
  if (!files.empty()) {
    SpillManager* spill = SpillLocked();
    spill->Sync();
    for (uint32_t file : files) spill->Discard(file);
  }
  if (options_.budget != nullptr && charged_bytes_ != 0) {
    options_.budget->ReleasePinned(charged_bytes_);
  }
}

SpillManager* ChunkJournal::SpillLocked() {
  if (options_.spill != nullptr) return options_.spill;
  if (!owned_spill_) owned_spill_ = std::make_unique<SpillManager>();
  return owned_spill_.get();
}

void ChunkJournal::Append(uint32_t shard,
                          const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  ++s.chunks;
  ++total_chunks_;
  total_bytes_ += payload.size();

  bool resident = false;
  if (options_.budget != nullptr) {
    resident =
        options_.budget->TryChargePinned(payload.size(), /*reserve=*/0);
    if (resident) charged_bytes_ += payload.size();
  } else {
    resident =
        resident_bytes_ + payload.size() <= options_.fallback_budget_bytes;
  }
  if (resident) {
    resident_bytes_ += payload.size();
    s.resident.push_back(payload);
    return;
  }

  SpillManager* spill = SpillLocked();
  if (!s.has_spill_file) {
    s.spill_file = spill->NewFile("journal-shard-" + std::to_string(shard));
    s.has_spill_file = true;
  }
  spill->Append(s.spill_file, payload);
}

bool ChunkJournal::Replay(
    uint32_t shard,
    const std::function<void(const std::vector<uint8_t>&)>& fn,
    std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  if (s.has_spill_file) {
    SpillManager* spill = SpillLocked();
    if (!spill->Sync()) {
      *error = "journal sync failed: " + spill->error();
      return false;
    }
    if (!spill->Replay(
            s.spill_file,
            [&fn](const std::vector<uint8_t>& payload, std::string*) {
              fn(payload);
              return true;
            },
            error)) {
      *error = "journal replay of shard " + std::to_string(shard) +
               " failed: " + *error;
      return false;
    }
  }
  for (const std::vector<uint8_t>& payload : s.resident) fn(payload);
  return true;
}

uint64_t ChunkJournal::chunks(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard].chunks;
}

uint64_t ChunkJournal::total_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_chunks_;
}

uint64_t ChunkJournal::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

uint64_t ChunkJournal::spilled_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> files;
  for (const Shard& s : shards_) {
    if (s.has_spill_file) files.push_back(s.spill_file);
  }
  if (files.empty()) return 0;
  const SpillManager* spill =
      options_.spill != nullptr ? options_.spill : owned_spill_.get();
  return spill->Stats(files).spilled_bytes;
}

}  // namespace net
}  // namespace ppa
