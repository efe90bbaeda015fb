#include "io/fastx.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

#if defined(PPA_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace ppa {

namespace {

constexpr size_t kBufferSize = 1 << 16;

#if !defined(PPA_HAVE_ZLIB)
bool HasGzSuffix(const std::string& path) {
  return path.size() >= 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}
#endif

}  // namespace

FastxReader::FastxReader(const std::string& path)
    : path_(path), buffer_(kBufferSize) {
#if defined(PPA_HAVE_ZLIB)
  // gzFile reads plain files transparently, so one open path serves both.
  file_ = gzopen(path.c_str(), "rb");
#else
  if (HasGzSuffix(path)) {
    Fail("gzip input requires a build with zlib (PPA_HAVE_ZLIB)");
  }
  file_ = std::fopen(path.c_str(), "rb");
#endif
  if (file_ == nullptr) Fail("cannot open file");
}

FastxReader::~FastxReader() {
  if (file_ == nullptr) return;
#if defined(PPA_HAVE_ZLIB)
  gzclose(static_cast<gzFile>(file_));
#else
  std::fclose(static_cast<FILE*>(file_));
#endif
}

void FastxReader::Fail(const std::string& why) const {
  FailAt(line_number_, why);
}

void FastxReader::FailAt(uint64_t line, const std::string& why) const {
  PPA_LOG(kError) << "FASTX error: " << path_ << ":" << line << ": " << why;
  std::abort();
}

bool FastxReader::FillBuffer() {
  if (eof_) return false;
#if defined(PPA_HAVE_ZLIB)
  int n = gzread(static_cast<gzFile>(file_), buffer_.data(),
                 static_cast<unsigned>(buffer_.size()));
  if (n < 0) {
    int zerr = 0;
    const char* detail = gzerror(static_cast<gzFile>(file_), &zerr);
    Fail("read error: " +
         (zerr == Z_ERRNO
              ? std::string(std::strerror(errno))
              : std::string(detail != nullptr && *detail != '\0'
                                ? detail
                                : "corrupt gzip stream")));
  }
#else
  size_t n = std::fread(buffer_.data(), 1, buffer_.size(),
                        static_cast<FILE*>(file_));
  // An I/O error can surface as a short read (fread returns the partial
  // count, and 0 only on the following call), so checking ferror only when
  // n == 0 would parse the truncated tail as valid records first.
  if (n < buffer_.size() && std::ferror(static_cast<FILE*>(file_))) {
    Fail("read error: " + std::string(std::strerror(errno)));
  }
#endif
  buffer_pos_ = 0;
  buffer_len_ = static_cast<size_t>(n);
  if (buffer_len_ == 0) eof_ = true;
  return buffer_len_ > 0;
}

bool FastxReader::ReadLine(std::string* line) {
  line->clear();
  bool saw_any = false;
  for (;;) {
    if (buffer_pos_ >= buffer_len_ && !FillBuffer()) break;
    const char* start = buffer_.data() + buffer_pos_;
    const char* end = buffer_.data() + buffer_len_;
    const char* nl = static_cast<const char*>(
        memchr(start, '\n', static_cast<size_t>(end - start)));
    saw_any = true;
    if (nl != nullptr) {
      line->append(start, nl);
      buffer_pos_ = static_cast<size_t>(nl - buffer_.data()) + 1;
      break;
    }
    line->append(start, end);
    buffer_pos_ = buffer_len_;
  }
  if (!saw_any) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  ++line_number_;
  return true;
}

bool FastxReader::NextContentLine(std::string* line) {
  if (has_pushed_back_) {
    *line = std::move(pushed_back_);
    has_pushed_back_ = false;
    return true;
  }
  while (ReadLine(line)) {
    if (!line->empty()) return true;
  }
  return false;
}

void FastxReader::PushBack(std::string line) {
  pushed_back_ = std::move(line);
  has_pushed_back_ = true;
}

bool FastxReader::Next(Read* read) {
  std::string line;
  if (!NextContentLine(&line)) return false;

  if (format_ == FastxFormat::kUnknown) {
    if (line[0] == '>') {
      format_ = FastxFormat::kFasta;
    } else if (line[0] == '@') {
      format_ = FastxFormat::kFastq;
    } else {
      Fail("not a FASTA/FASTQ file (first record starts with '" +
           line.substr(0, 1) + "', expected '>' or '@')");
    }
  }

  read->name.clear();
  read->bases.clear();
  read->quals.clear();

  if (format_ == FastxFormat::kFasta) {
    if (line[0] != '>') Fail("expected '>' FASTA header");
    read->name = line.substr(1);
    while (NextContentLine(&line)) {
      if (line[0] == '>') {
        PushBack(std::move(line));
        break;
      }
      read->bases += line;
    }
  } else {
    if (line[0] != '@') Fail("expected '@' FASTQ header");
    // A FASTQ record is a fixed 4-line group. The three lines after the
    // header are taken verbatim (ReadLine, not NextContentLine): a blank
    // line inside the group is record content — the sequence/quality of a
    // zero-length read — or a structural error reported at its own line,
    // never whitespace to skip. Blank lines are skipped only between
    // records, by the header read above.
    const uint64_t header_line = line_number_;
    // Formatted only on the failure paths: every record passes through
    // here on the reader thread, which pass 1 can wait on.
    auto at_record = [header_line] {
      return " (record at line " + std::to_string(header_line) + ")";
    };
    read->name = line.substr(1);
    if (!ReadLine(&line)) {
      FailAt(header_line + 1, "truncated FASTQ record: missing sequence line" +
                                  at_record());
    }
    read->bases = std::move(line);
    if (!ReadLine(&line)) {
      FailAt(header_line + 2,
             "truncated FASTQ record: missing '+' separator line" +
                 at_record());
    }
    if (line.empty() || line[0] != '+') {
      Fail("malformed FASTQ record: expected '+' separator, got " +
           (line.empty() ? std::string("a blank line")
                         : "'" + line.substr(0, 1) + "'") +
           at_record());
    }
    if (!ReadLine(&line)) {
      FailAt(header_line + 3,
             "truncated FASTQ record: missing quality line" + at_record());
    }
    read->quals = std::move(line);
    if (read->quals.size() != read->bases.size()) {
      Fail("FASTQ quality length (" + std::to_string(read->quals.size()) +
           ") does not match sequence length (" +
           std::to_string(read->bases.size()) + ")" + at_record());
    }
  }
  ++records_;
  return true;
}

bool MultiFileReadSource::Next(Read* read) {
  for (;;) {
    if (current_ == nullptr) {
      if (next_path_ >= paths_.size()) return false;
      current_ = std::make_unique<FastxReader>(paths_[next_path_++]);
    }
    if (current_->Next(read)) return true;
    current_.reset();
  }
}

std::unique_ptr<ReadSource> OpenFastxFiles(std::vector<std::string> paths) {
  PPA_CHECK(!paths.empty());
  if (paths.size() == 1) {
    return std::make_unique<FastxReader>(paths[0]);
  }
  return std::make_unique<MultiFileReadSource>(std::move(paths));
}

}  // namespace ppa
