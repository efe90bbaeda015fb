#include "net/journal.h"

namespace ppa {
namespace net {

ChunkJournal::ChunkJournal(const Options& options)
    : options_(options), shards_(options.num_shards) {}

ChunkJournal::~ChunkJournal() {
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
    resident = options_.budget->TryChargePinned(payload.size());
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
  ++s.spilled_chunks;
  spilled_bytes_ += payload.size();
  spill->Append(s.spill_file, payload);
}

bool ChunkJournal::Replay(
    uint32_t shard,
    const std::function<void(const std::vector<uint8_t>&)>& fn,
    std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  Shard& s = shards_[shard];
  if (s.spilled_chunks != 0) {
    SpillManager* spill = SpillLocked();
    if (!spill->Sync()) {
      *error = "journal sync failed: " + spill->error();
      return false;
    }
    SpillReader reader = spill->OpenReader(s.spill_file);
    std::vector<uint8_t> payload;
    while (reader.Next(&payload)) fn(payload);
    if (!reader.ok()) {
      *error = "journal replay failed: " + reader.error();
      return false;
    }
    if (reader.records() != s.spilled_chunks) {
      *error = "journal replay of shard " + std::to_string(shard) +
               " read " + std::to_string(reader.records()) +
               " spilled chunks, expected " +
               std::to_string(s.spilled_chunks);
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
  return spilled_bytes_;
}

}  // namespace net
}  // namespace ppa
