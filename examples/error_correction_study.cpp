// Error-correction study: how tips and bubbles arise from read errors and
// what operations (4) and (5) recover — a runnable version of the paper's
// Fig. 3/Fig. 5 narrative.
//
//   $ ./example_error_correction_study
//
// Sweeps the read error rate and shows, for each rate, the DBG size, the
// number of tips and bubbles corrected, and the N50 with and without the
// error-correction operations.
#include <cstdio>
#include <vector>

#include "core/assembler.h"
#include "quality/quast.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

namespace {

struct Row {
  double error_rate;
  uint64_t dbg_vertices;
  uint64_t tips;
  uint64_t bubbles;
  uint64_t n50_with;
  uint64_t n50_without;
};

}  // namespace

int main() {
  using namespace ppa;

  GenomeConfig genome_config;
  genome_config.length = 60000;
  genome_config.repeat_families = 2;
  genome_config.repeat_length = 200;
  genome_config.repeat_copies = 3;
  PackedSequence genome = GenerateGenome(genome_config);

  std::printf("Reference: %zu bp. Sweeping read error rate.\n\n",
              genome.size());
  std::printf("%10s | %12s | %6s | %8s | %10s | %12s\n", "error rate",
              "DBG vertices", "tips", "bubbles", "N50 (corr)",
              "N50 (no corr)");
  std::printf("-----------------------------------------------------------------------\n");

  for (double error_rate : {0.0, 0.002, 0.005, 0.01, 0.02}) {
    ReadSimConfig read_config;
    read_config.read_length = 100;
    read_config.coverage = 35;
    read_config.error_rate = error_rate;
    read_config.seed = 21;
    std::vector<Read> reads = SimulateReads(genome, read_config);

    AssemblerOptions options;
    options.k = 31;
    options.coverage_threshold = 2;
    options.num_workers = 16;

    // Full workflow: (1)(2)(3)(4)(5)(6)(2)(3). The contigs after the first
    // merge, before operations (4) and (5), are the "no correction" column.
    AssemblyResult with_corr = Assembler(options).Assemble(reads);

    std::vector<uint64_t> with_lengths;
    for (const ContigRecord& c : with_corr.contigs) {
      with_lengths.push_back(c.seq.size());
    }
    const std::vector<uint64_t> without_lengths(
        with_corr.round1_contig_lengths.begin(),
        with_corr.round1_contig_lengths.end());

    std::printf("%10.3f | %12llu | %6llu | %8llu | %10llu | %12llu\n",
                error_rate,
                static_cast<unsigned long long>(with_corr.kmer_vertices),
                static_cast<unsigned long long>(with_corr.tips_removed),
                static_cast<unsigned long long>(with_corr.bubbles_pruned),
                static_cast<unsigned long long>(ComputeN50(with_lengths)),
                static_cast<unsigned long long>(
                    ComputeN50(without_lengths)));
  }

  std::printf(
      "\nReading the table: errors inflate the DBG with false vertices;\n"
      "tip removing and bubble filtering prune them, and the second merge\n"
      "round then grows contigs through the recovered junctions.\n");
  return 0;
}
