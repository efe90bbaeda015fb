// Buffered FASTA/FASTQ record sources.
//
// The evaluation datasets of the paper are FASTQ files of up to 151.55 M
// reads (Table I) — far beyond what the in-memory ParseFastq(ReadFile(...))
// path should ever hold resident. FastxReader streams records one at a time
// through a fixed-size buffer, auto-detecting the format from the first
// record marker ('>' = FASTA, '@' = FASTQ). When the build finds zlib
// (PPA_HAVE_ZLIB), files are opened through gzFile, which transparently
// reads both gzip-compressed and plain files; without zlib, plain files
// still work and .gz inputs are rejected with a clear error.
//
// ReadSource is the minimal pull interface io/read_stream.h batches behind
// a reader thread; MultiFileReadSource concatenates several files, and
// VectorReadSource adapts reads already in memory — the std::vector<Read>
// overloads of Assembler::Assemble and BuildDbg are thin adapters over it.
// So every pipeline entry point — files, file lists, simulations, tests —
// runs the one streaming path.
#ifndef PPA_IO_FASTX_H_
#define PPA_IO_FASTX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dna/read.h"

namespace ppa {

/// Detected record format of a FASTX file.
enum class FastxFormat { kUnknown = 0, kFasta = 1, kFastq = 2 };

/// A pull-based stream of reads. Implementations are single-consumer; the
/// concurrency layer on top is io/read_stream.h.
class ReadSource {
 public:
  virtual ~ReadSource() = default;

  /// Fills `read` with the next record; false at end of stream.
  virtual bool Next(Read* read) = 0;
};

/// Streams records from one FASTA/FASTQ file (optionally gzipped).
/// Malformed records abort with a message naming the file and line — the
/// same contract as the in-memory parsers (PPA_CHECK), with location added.
class FastxReader : public ReadSource {
 public:
  /// Opens `path`; aborts if the file cannot be opened (callers that want a
  /// soft failure should probe the path first, as the CLI does).
  explicit FastxReader(const std::string& path);
  ~FastxReader() override;

  FastxReader(const FastxReader&) = delete;
  FastxReader& operator=(const FastxReader&) = delete;

  bool Next(Read* read) override;

  /// Format detected from the first record; kUnknown before any record (or
  /// for an empty file).
  FastxFormat format() const { return format_; }
  const std::string& path() const { return path_; }
  uint64_t records() const { return records_; }

 private:
  bool FillBuffer();
  /// Reads one line (without the terminator, '\r' stripped); false at EOF.
  bool ReadLine(std::string* line);
  /// Reads the next non-blank line, honoring a pushed-back line.
  bool NextContentLine(std::string* line);
  void PushBack(std::string line);
  [[noreturn]] void Fail(const std::string& why) const;
  /// Fail with an explicit line number — used when the defect is a line
  /// that does not exist (truncation), where line_number_ still points at
  /// the last line actually read.
  [[noreturn]] void FailAt(uint64_t line, const std::string& why) const;

  std::string path_;
  FastxFormat format_ = FastxFormat::kUnknown;
  void* file_ = nullptr;  // gzFile when PPA_HAVE_ZLIB, else FILE*.
  std::vector<char> buffer_;
  size_t buffer_pos_ = 0;
  size_t buffer_len_ = 0;
  bool eof_ = false;
  uint64_t line_number_ = 0;
  uint64_t records_ = 0;
  std::string pushed_back_;
  bool has_pushed_back_ = false;
};

/// Serves reads from an in-memory vector (simulated datasets, tests, the
/// std::vector<Read> overloads of Assemble and BuildDbg).
class VectorReadSource : public ReadSource {
 public:
  explicit VectorReadSource(std::vector<Read> reads)
      : reads_(std::move(reads)) {}

  bool Next(Read* read) override {
    if (next_ >= reads_.size()) return false;
    *read = std::move(reads_[next_++]);
    return true;
  }

 private:
  std::vector<Read> reads_;
  size_t next_ = 0;
};

/// Concatenates several FASTX files into one stream; files are opened
/// lazily, one at a time.
class MultiFileReadSource : public ReadSource {
 public:
  explicit MultiFileReadSource(std::vector<std::string> paths)
      : paths_(std::move(paths)) {}

  bool Next(Read* read) override;

 private:
  std::vector<std::string> paths_;
  size_t next_path_ = 0;
  std::unique_ptr<FastxReader> current_;
};

/// Opens one or more FASTX files as a single ReadSource.
std::unique_ptr<ReadSource> OpenFastxFiles(std::vector<std::string> paths);

}  // namespace ppa

#endif  // PPA_IO_FASTX_H_
