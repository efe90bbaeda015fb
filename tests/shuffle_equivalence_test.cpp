// Thread-count equivalence property (TEST_P): for a grid of (k,
// num_workers), the whole six-operation pipeline must produce bit-identical
// assemblies — same contig records, same QUAST metrics — at num_threads 1
// and 4, exercising every MapReduce call site of the pipeline (DBG
// construction phase (ii), both contig-merging jobs, bubble filtering).
// The shuffle engine itself is checked against a serial reference in
// mapreduce_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/assembler.h"
#include "quality/quast.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

namespace ppa {
namespace {

struct GridPoint {
  int k;
  uint32_t num_workers;
};

class ShuffleEquivalence : public ::testing::TestWithParam<GridPoint> {};

/// Canonical full-fidelity view of an assembly: every contig field, sorted.
std::vector<std::tuple<uint64_t, std::string, uint32_t, bool>> Canon(
    const AssemblyResult& result) {
  std::vector<std::tuple<uint64_t, std::string, uint32_t, bool>> out;
  for (const ContigRecord& c : result.contigs) {
    out.emplace_back(c.id, c.seq.ToString(), c.coverage, c.circular);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_P(ShuffleEquivalence, PipelineOutputsAreBitIdentical) {
  const GridPoint point = GetParam();

  GenomeConfig gconfig;
  gconfig.length = 8000;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 120;
  gconfig.repeat_copies = 3;
  gconfig.seed = 4000 + static_cast<uint64_t>(point.k);
  PackedSequence genome = GenerateGenome(gconfig);

  ReadSimConfig rconfig;
  rconfig.read_length = 70;
  rconfig.coverage = 35;
  rconfig.error_rate = 0.005;  // bubbles + tips, so all call sites do work
  rconfig.seed = 99;
  std::vector<Read> reads = SimulateReads(genome, rconfig);

  AssemblerOptions options;
  options.k = point.k;
  options.coverage_threshold = 2;
  options.tip_length_threshold = 60;
  options.num_workers = point.num_workers;

  std::vector<AssemblyResult> results;
  for (unsigned threads : {1u, 4u}) {
    options.num_threads = threads;
    results.push_back(Assembler(options).Assemble(reads));
    ASSERT_GT(results.back().contigs.size(), 0u);
  }

  const auto reference = Canon(results[0]);  // 1 thread
  QuastConfig quast_config;
  const QuastReport expected =
      EvaluateAssembly(results[0].ContigStrings(), &genome, quast_config);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(Canon(results[i]), reference) << "variant " << i;
    const QuastReport report =
        EvaluateAssembly(results[i].ContigStrings(), &genome, quast_config);
    EXPECT_EQ(report.num_contigs, expected.num_contigs);
    EXPECT_EQ(report.total_length, expected.total_length);
    EXPECT_EQ(report.n50, expected.n50);
    EXPECT_EQ(report.largest_contig, expected.largest_contig);
    EXPECT_EQ(report.misassemblies, expected.misassemblies);
    EXPECT_DOUBLE_EQ(report.genome_fraction, expected.genome_fraction);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShuffleEquivalence,
    ::testing::Values(GridPoint{15, 1}, GridPoint{15, 4}, GridPoint{15, 16},
                      GridPoint{21, 1}, GridPoint{21, 4}, GridPoint{21, 16},
                      GridPoint{31, 1}, GridPoint{31, 4}, GridPoint{31, 16}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return "k" + std::to_string(info.param.k) + "_w" +
             std::to_string(info.param.num_workers);
    });

}  // namespace
}  // namespace ppa
