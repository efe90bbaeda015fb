#include "spill/spill.h"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "obs/trace.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ppa {

namespace {

namespace fs = std::filesystem;

/// File names derive from producer-chosen labels (job names, shard ids);
/// anything outside [A-Za-z0-9._-] becomes '_' so a label can never escape
/// the spill directory or embed separators.
std::string SanitizeName(const std::string& name) {
  std::string safe;
  safe.reserve(name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                    c == '_' || c == '-';
    safe.push_back(ok ? c : '_');
  }
  return safe.empty() ? std::string("spill") : safe;
}

uint32_t ReadLe32(const uint8_t b[4]) {
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillReader
// ---------------------------------------------------------------------------

const char SpillReader::kMagic[8] = {'P', 'P', 'A', 'S', 'P', 'L', '0', '1'};

SpillReader::SpillReader(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) return;  // never spilled: zero records, ok
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    Fail("cannot determine file size");
    return;
  }
  const long size = std::ftell(file_);
  if (size < 0) {
    Fail("cannot determine file size");
    return;
  }
  file_size_ = static_cast<uint64_t>(size);
  std::rewind(file_);

  char magic[8];
  if (file_size_ < sizeof(magic) ||
      std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    Fail("bad magic (not a spill file, or header truncated)");
    return;
  }
  offset_ = sizeof(magic);
}

SpillReader::~SpillReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool SpillReader::Fail(const std::string& what) {
  error_ = "spill readback failed: " + path_ + ": " + what + " (record #" +
           std::to_string(records_) + ", offset " + std::to_string(offset_) +
           ")";
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return false;
}

bool SpillReader::Next(std::vector<uint8_t>* payload) {
  if (file_ == nullptr) return false;  // missing file, EOF, or prior error
  if (offset_ == file_size_) return false;  // clean end at a record boundary

  // Record length varint, byte by byte. Same strictness as GetVarint64: a
  // 10th byte may contribute bit 63 only, anything above is an overflow —
  // wrapped bits would misframe every record after this one.
  uint64_t length = 0;
  int shift = 0;
  for (;;) {
    const int c = std::fgetc(file_);
    if (c == EOF) return Fail("truncated record length");
    ++offset_;
    if (shift == 63 && (c & 0x7E) != 0) {
      return Fail("record length varint overflows 64 bits");
    }
    length |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) return Fail("overlong record length varint");
  }
  // Overflow-safe bounds check: `length` comes from an untrusted varint
  // (the length itself is not CRC-covered), so the sum form
  // `4 + length > remaining` could wrap for lengths near 2^64.
  const uint64_t remaining = file_size_ - offset_;
  if (remaining < sizeof(uint32_t) ||
      length > remaining - sizeof(uint32_t)) {
    return Fail("record length " + std::to_string(length) +
                " reaches past end of file");
  }

  uint8_t crc_bytes[4];
  if (std::fread(crc_bytes, 1, sizeof(crc_bytes), file_) !=
      sizeof(crc_bytes)) {
    return Fail("truncated record checksum");
  }
  offset_ += sizeof(crc_bytes);

  payload->resize(length);
  if (length != 0 && std::fread(payload->data(), 1, length, file_) != length) {
    return Fail("truncated record payload");
  }
  offset_ += length;

  const uint32_t expected = ReadLe32(crc_bytes);
  const uint32_t actual = Crc32(payload->data(), payload->size());
  if (actual != expected) return Fail("CRC mismatch");

  ++records_;
  bytes_read_ += length;
  static obs::Counter* read_records =
      obs::MetricsRegistry::Global().GetCounter("spillio.read_records");
  static obs::Counter* read_bytes =
      obs::MetricsRegistry::Global().GetCounter("spillio.read_bytes");
  read_records->Increment();
  read_bytes->Add(length);
  return true;
}

// ---------------------------------------------------------------------------
// SpillManager
// ---------------------------------------------------------------------------

SpillManager::SpillManager() : SpillManager(Config()) {}

SpillManager::SpillManager(const Config& config) {
  const fs::path parent = config.parent_dir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(config.parent_dir);
  static std::atomic<uint64_t> instance{0};
  std::error_code ec;
  fs::create_directories(parent, ec);
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint64_t nonce =
        instance.fetch_add(1) ^
        static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
    const fs::path dir =
        parent / ("ppa-spill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(nonce));
    ec.clear();
    if (fs::create_directory(dir, ec) && !ec) {
      dir_ = dir.string();
      break;
    }
  }
  if (dir_.empty()) {
    throw std::runtime_error("SpillManager: cannot create spill directory under " +
                             parent.string());
  }

  const unsigned writers =
      std::min(std::max(config.writer_threads, 1u), 8u);
  writers_.reserve(writers);
  for (unsigned w = 0; w < writers; ++w) {
    writers_.push_back(std::make_unique<Writer>());
  }
  // Threads start only after the vector is fully built — WriterLoop indexes
  // writers_ by file id.
  for (unsigned w = 0; w < writers; ++w) {
    writers_[w]->thread = std::thread([this, w] { WriterLoop(w); });
  }
}

SpillManager::~SpillManager() {
  // Drain instead of discarding: queued `done` callbacks must run so
  // producer byte accounting (and anything waiting on it) settles even on
  // early-destruction and unwind paths.
  Sync();
  for (auto& writer : writers_) {
    std::lock_guard<std::mutex> lock(writer->mu);
    writer->stop = true;
    writer->cv.notify_all();
  }
  for (auto& writer : writers_) {
    if (writer->thread.joinable()) writer->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    for (File& file : files_) {
      if (file.stream != nullptr) std::fclose(file.stream);
    }
  }
  std::error_code ec;
  fs::remove_all(dir_, ec);  // best effort; never throws from a destructor
}

uint32_t SpillManager::NewFile(const std::string& name) {
  std::lock_guard<std::mutex> lock(files_mu_);
  const uint32_t id = static_cast<uint32_t>(files_.size());
  files_.emplace_back();
  files_.back().path =
      dir_ + "/" + std::to_string(id) + "-" + SanitizeName(name) + ".spill";
  return id;
}

SpillManager::File& SpillManager::FileAt(uint32_t file) {
  std::lock_guard<std::mutex> lock(files_mu_);
  return files_[file];  // deque: stable across NewFile appends
}

void SpillManager::Append(uint32_t file, std::vector<uint8_t> payload,
                          std::function<void()> done) {
  File& ledger = FileAt(file);
  PPA_CHECK(!ledger.discarded.load(std::memory_order_relaxed));
  ledger.records.fetch_add(1, std::memory_order_relaxed);
  ledger.bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  Writer& writer = *writers_[file % writers_.size()];
  std::lock_guard<std::mutex> lock(writer.mu);
  writer.queue.push_back(WriteJob{file, std::move(payload), std::move(done)});
  ++writer.in_flight;
  writer.cv.notify_one();
}

bool SpillManager::Sync() {
  for (auto& writer : writers_) {
    std::unique_lock<std::mutex> lock(writer->mu);
    writer->drained.wait(lock, [&] { return writer->in_flight == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    for (File& file : files_) {
      if (file.stream != nullptr && std::fflush(file.stream) != 0) {
        RecordError("cannot flush " + file.path);
      }
    }
  }
  return !failed_.load(std::memory_order_acquire);
}

bool SpillManager::Replay(uint32_t file, const RecordFn& fn,
                          std::string* error) {
  File& ledger = FileAt(file);
  const uint64_t expected = ledger.records.load(std::memory_order_relaxed);
  if (expected == 0) return true;
  PPA_TRACE_SPAN("spill.readback", "spill");
  SpillReader reader(ledger.path);
  std::vector<uint8_t> payload;
  std::string why;
  while (reader.Next(&payload)) {
    if (reader.records() > expected) continue;  // counted below, never fed
    if (!fn(payload, &why)) {
      *error = "spill readback failed: " + ledger.path + ": record #" +
               std::to_string(reader.records() - 1) + " refused: " + why;
      return false;
    }
  }
  if (!reader.ok()) {
    *error = reader.error();
    return false;
  }
  if (reader.records() != expected) {
    // A file that parses cleanly but holds a different number of records
    // than were appended would silently drop or repeat data; refuse it.
    *error = "spill readback failed: " + ledger.path + " holds " +
             std::to_string(reader.records()) + " records, expected " +
             std::to_string(expected);
    return false;
  }
  ledger.replayed_records.fetch_add(reader.records(),
                                    std::memory_order_relaxed);
  ledger.replayed_bytes.fetch_add(reader.bytes_read(),
                                  std::memory_order_relaxed);
  return true;
}

void SpillManager::Discard(uint32_t file) {
  std::lock_guard<std::mutex> lock(files_mu_);
  File& f = files_[file];
  f.discarded.store(true, std::memory_order_relaxed);
  if (f.stream != nullptr) {
    std::fclose(f.stream);
    f.stream = nullptr;
  }
  std::error_code ec;
  fs::remove(f.path, ec);  // never created when nothing was appended
}

SpillStats SpillManager::Stats(const std::vector<uint32_t>& files) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  SpillStats stats;
  for (uint32_t id : files) {
    const File& file = files_[id];
    const uint64_t records = file.records.load(std::memory_order_relaxed);
    stats.spilled_chunks += records;
    stats.spilled_bytes += file.bytes.load(std::memory_order_relaxed);
    stats.spill_files += records != 0 ? 1 : 0;
    stats.readback_chunks +=
        file.replayed_records.load(std::memory_order_relaxed);
    stats.readback_bytes +=
        file.replayed_bytes.load(std::memory_order_relaxed);
  }
  return stats;
}

std::string SpillManager::FilePath(uint32_t file) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  return files_[file].path;
}

std::string SpillManager::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void SpillManager::RecordError(const std::string& what) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.empty()) error_ = "spill write failed: " + what;
  failed_.store(true, std::memory_order_release);
}

void SpillManager::WriterLoop(unsigned w) {
  obs::SetTraceThreadName("spill-writer");
  Writer& writer = *writers_[w];
  for (;;) {
    WriteJob job;
    {
      std::unique_lock<std::mutex> lock(writer.mu);
      writer.cv.wait(lock, [&] { return !writer.queue.empty() || writer.stop; });
      if (writer.queue.empty()) return;  // stop requested and drained
      job = std::move(writer.queue.front());
      writer.queue.pop_front();
      // in_flight is released only after the bytes are written, so Sync
      // cannot observe "drained" with a write still in progress.
    }
    WriteRecord(&FileAt(job.file), job);
    if (job.done) job.done();
    {
      std::lock_guard<std::mutex> lock(writer.mu);
      --writer.in_flight;
      if (writer.in_flight == 0) writer.drained.notify_all();
    }
  }
}

void SpillManager::WriteRecord(File* file, const WriteJob& job) {
  // After the first failure the store is poisoned; keep draining jobs (the
  // done callbacks must run) but stop touching the disk.
  if (failed_.load(std::memory_order_acquire)) return;
  PPA_TRACE_SPAN_V("spill.write", "spill", job.payload.size());
  if (file->stream == nullptr) {
    file->stream = std::fopen(file->path.c_str(), "wb");
    if (file->stream == nullptr ||
        std::fwrite(SpillReader::kMagic, 1, sizeof(SpillReader::kMagic),
                    file->stream) != sizeof(SpillReader::kMagic)) {
      RecordError("cannot create " + file->path);
      return;
    }
  }

  std::vector<uint8_t> header;
  PutVarint64(&header, job.payload.size());
  const uint32_t crc = Crc32(job.payload.data(), job.payload.size());
  header.push_back(static_cast<uint8_t>(crc));
  header.push_back(static_cast<uint8_t>(crc >> 8));
  header.push_back(static_cast<uint8_t>(crc >> 16));
  header.push_back(static_cast<uint8_t>(crc >> 24));

  if (std::fwrite(header.data(), 1, header.size(), file->stream) !=
          header.size() ||
      (!job.payload.empty() &&
       std::fwrite(job.payload.data(), 1, job.payload.size(), file->stream) !=
           job.payload.size())) {
    RecordError("short write to " + file->path);
  }
}

std::unique_ptr<SpillContext> MakeSpillContext(const std::string& parent_dir,
                                               uint64_t budget_bytes) {
  if (budget_bytes == 0) return nullptr;
  SpillManager::Config config;
  config.parent_dir = parent_dir;
  // Two writers so file appends overlap (files hash across writers by id);
  // producers under backpressure stall on the drain rate of these threads.
  config.writer_threads = 2;
  return std::make_unique<SpillContext>(budget_bytes, config);
}

}  // namespace ppa
