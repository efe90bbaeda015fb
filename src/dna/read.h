// DNA read record and FASTQ/FASTA I/O.
//
// All evaluation datasets in the paper are FASTQ ("which includes the
// sequence of each DNA read", Sec. V). Reads keep their raw ASCII bases
// because they may contain 'N' (undetermined base); DBG construction splits
// on 'N' (Sec. IV.B-1), so 2-bit classification and packing happen only on
// the counter's scanner threads (dbg/kmer_counter.h), never on the reader.
#ifndef PPA_DNA_READ_H_
#define PPA_DNA_READ_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppa {

/// A single sequencing read.
struct Read {
  std::string name;   // e.g. "@sim.12345/1" without the leading '@'.
  std::string bases;  // ASCII A/C/G/T/N.
  std::string quals;  // Phred+33; empty for FASTA input.
};

/// Parses FASTQ text (4 lines per record). Tolerates trailing blank lines.
/// Aborts on malformed records.
std::vector<Read> ParseFastq(const std::string& text);

/// Serializes reads as FASTQ. Missing quality strings are emitted as 'I'
/// (Phred 40) to keep records well-formed.
std::string WriteFastq(const std::vector<Read>& reads);

/// Parses FASTA text into (name, sequence) reads with empty quals.
std::vector<Read> ParseFasta(const std::string& text);

/// Serializes sequences as FASTA with 80-column wrapping.
std::string WriteFasta(const std::vector<Read>& reads);

/// Loads a whole file into a string; aborts if unreadable.
std::string ReadFile(const std::string& path);

/// Writes a string to a file; aborts on failure.
void WriteFile(const std::string& path, const std::string& content);

}  // namespace ppa

#endif  // PPA_DNA_READ_H_
