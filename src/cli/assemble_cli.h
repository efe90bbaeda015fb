// The ppa_assemble driver, as a library.
//
// Flag parsing and the file-to-file pipeline run live here (not in the
// ppa_assemble.cpp main) so tests can drive the exact code path the binary
// ships: parse argv, stream FASTA/FASTQ input through the six-operation
// pipeline with bounded memory (one ReadStream, one Assembler::Assemble
// call — the only way the binary runs), write contig FASTA + a
// grep-friendly stats report, optionally assess against a reference.
#ifndef PPA_CLI_ASSEMBLE_CLI_H_
#define PPA_CLI_ASSEMBLE_CLI_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/contig_labeling.h"
#include "core/options.h"
#include "io/read_stream.h"

namespace ppa {

/// Everything ppa_assemble accepts on the command line.
struct AssembleCliOptions {
  std::vector<std::string> inputs;     // FASTA/FASTQ[.gz] files (positional)
  std::string contigs_out = "contigs.fasta";
  std::string stats_out;      // empty = stdout
  std::string reference;      // optional reference FASTA for QUAST metrics
  AssemblerOptions assembler;
  ReadStreamConfig stream;
  LabelingMethod labeling = LabelingMethod::kListRanking;

  // Observability (obs/).
  std::string report_json;    // non-empty: write the machine-readable report
  std::string trace_out;      // non-empty: collect + write a Chrome trace
  std::string log_level;      // validated at parse time; empty = warn
  std::string metrics_listen; // non-empty: serve GET /metrics here mid-run
};

/// Usage text (the --help output).
std::string AssembleCliUsage();

/// Parses argv (argv[0] skipped). On failure fills `error` and returns
/// false; an integer flag outside its field's range is such a failure.
/// `--help` parses successfully and sets *help = true.
bool ParseAssembleCliArgs(int argc, const char* const* argv,
                          AssembleCliOptions* opts, bool* help,
                          std::string* error);

/// Runs the pipeline described by `opts`. Errors go to `err`; the stats
/// report goes to opts.stats_out (or `out` when empty). Returns the process
/// exit code.
int RunAssembleCli(const AssembleCliOptions& opts, std::ostream& out,
                   std::ostream& err);

}  // namespace ppa

#endif  // PPA_CLI_ASSEMBLE_CLI_H_
