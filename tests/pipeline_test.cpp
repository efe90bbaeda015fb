// End-to-end integration tests: reads -> DBG -> label -> merge -> correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/assembler.h"
#include "core/dbg_construction.h"
#include "dbg/kmer_counter.h"
#include "dna/kmer.h"
#include "dna/read.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/logging.h"

namespace ppa {
namespace {

/// True iff `contig` occurs in `genome` on either strand.
bool IsGenomeSubstring(const std::string& contig, const std::string& genome,
                       const std::string& genome_rc) {
  return genome.find(contig) != std::string::npos ||
         genome_rc.find(contig) != std::string::npos;
}

AssemblerOptions SmallOptions(int k = 21) {
  AssemblerOptions options;
  options.k = k;
  options.coverage_threshold = 1;  // Error-free reads: keep everything.
  options.tip_length_threshold = 60;
  options.num_workers = 8;
  options.num_threads = 2;
  return options;
}

/// Error-free reads covering every position of the genome on both strands.
std::vector<Read> PerfectReads(const PackedSequence& genome, int read_len,
                               int stride = 3) {
  std::vector<Read> reads;
  std::string g = genome.ToString();
  std::string g_rc = genome.ReverseComplement().ToString();
  for (size_t pos = 0; pos + read_len <= g.size();
       pos += static_cast<size_t>(stride)) {
    reads.push_back(Read{"f" + std::to_string(pos),
                         g.substr(pos, read_len), ""});
    reads.push_back(Read{"r" + std::to_string(pos),
                         g_rc.substr(pos, read_len), ""});
  }
  return reads;
}

TEST(PipelineTest, RepeatFreeGenomeAssemblesToOneContig) {
  GenomeConfig config;
  config.length = 4000;
  config.repeat_families = 0;
  config.seed = 11;
  PackedSequence genome = GenerateGenome(config);

  AssemblerOptions options = SmallOptions();
  Assembler assembler(options);
  AssemblyResult result = assembler.Assemble(PerfectReads(genome, 60));

  // A repeat-free genome's DBG is a single unambiguous path: one contig
  // covering the whole genome.
  ASSERT_EQ(result.contigs.size(), 1u);
  std::string contig = result.contigs[0].seq.ToString();
  std::string g = genome.ToString();
  std::string g_rc = genome.ReverseComplement().ToString();
  EXPECT_TRUE(contig == g || contig == g_rc)
      << "contig length " << contig.size() << " vs genome " << g.size();
}

TEST(PipelineTest, ContigsAreAlwaysGenomeSubstringsOnCleanReads) {
  GenomeConfig config;
  config.length = 8000;
  config.repeat_families = 3;
  config.repeat_length = 150;
  config.repeat_copies = 4;
  config.seed = 23;
  PackedSequence genome = GenerateGenome(config);
  std::string g = genome.ToString();
  std::string g_rc = genome.ReverseComplement().ToString();

  AssemblerOptions options = SmallOptions();
  Assembler assembler(options);
  AssemblyResult result = assembler.Assemble(PerfectReads(genome, 60));

  ASSERT_GT(result.contigs.size(), 0u);
  for (const ContigRecord& c : result.contigs) {
    if (c.circular) continue;  // Circular contigs wrap; checked elsewhere.
    EXPECT_TRUE(IsGenomeSubstring(c.seq.ToString(), g, g_rc))
        << "contig of length " << c.seq.size() << " not found in genome";
  }
}

TEST(PipelineTest, BothLabelingMethodsProduceIdenticalContigSets) {
  GenomeConfig config;
  config.length = 6000;
  config.repeat_families = 2;
  config.repeat_length = 120;
  config.repeat_copies = 3;
  config.seed = 31;
  PackedSequence genome = GenerateGenome(config);
  std::vector<Read> reads = PerfectReads(genome, 60);

  AssemblerOptions options = SmallOptions();
  AssemblyResult lr =
      Assembler(options).Assemble(reads, LabelingMethod::kListRanking);
  AssemblyResult sv =
      Assembler(options).Assemble(reads, LabelingMethod::kSimplifiedSv);

  auto canonical_set = [](const AssemblyResult& r) {
    std::vector<std::string> seqs;
    for (const ContigRecord& c : r.contigs) {
      std::string s = c.seq.ToString();
      std::string rc = c.seq.ReverseComplement().ToString();
      seqs.push_back(std::min(s, rc));
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  EXPECT_EQ(canonical_set(lr), canonical_set(sv));
}

// List ranking cannot label a cycle: its vertices go to the S-V fallback,
// and the run counts them.
TEST(PipelineTest, CountsTheCycleVerticesListRankingLeaves) {
  GenomeConfig config;
  config.repeat_families = 0;
  config.length = 3000;
  config.seed = 41;
  const PackedSequence linear = GenerateGenome(config);
  config.length = 1000;
  config.seed = 43;
  const std::string circle = GenerateGenome(config).ToString();
  constexpr int kReadLen = 60;
  // Reads tiled around the circle, wrapping past its end.
  const PackedSequence wrapped = PackedSequence::FromString(
      circle + circle.substr(0, kReadLen - 1));

  const AssemblerOptions options = SmallOptions();
  const AssemblyResult linear_only =
      Assembler(options).Assemble(PerfectReads(linear, kReadLen));
  EXPECT_EQ(linear_only.labeling_cycle_vertices, 0u);

  std::vector<Read> reads = PerfectReads(linear, kReadLen);
  for (Read& r : PerfectReads(wrapped, kReadLen)) reads.push_back(std::move(r));
  const AssemblyResult with_circle = Assembler(options).Assemble(reads);
  // Round 1 hands S-V one k-mer vertex per position of the circle; round 2
  // none, since merging has made the circle one circular contig.
  EXPECT_EQ(with_circle.labeling_cycle_vertices, circle.size());
  EXPECT_EQ(with_circle.contigs.size(), 2u);

  // S-V labels every vertex itself, so it has no fallback to count.
  const AssemblyResult sv =
      Assembler(options).Assemble(reads, LabelingMethod::kSimplifiedSv);
  EXPECT_EQ(sv.labeling_cycle_vertices, 0u);
}

TEST(PipelineTest, ErroneousReadsStillYieldGenomeConsistentContigs) {
  GenomeConfig gconfig;
  gconfig.length = 10000;
  gconfig.repeat_families = 2;
  gconfig.repeat_length = 120;
  gconfig.repeat_copies = 3;
  gconfig.seed = 5;
  PackedSequence genome = GenerateGenome(gconfig);
  std::string g = genome.ToString();
  std::string g_rc = genome.ReverseComplement().ToString();

  ReadSimConfig rconfig;
  rconfig.read_length = 80;
  rconfig.coverage = 40;
  rconfig.error_rate = 0.005;
  rconfig.seed = 99;
  std::vector<Read> reads = SimulateReads(genome, rconfig);

  AssemblerOptions options = SmallOptions();
  options.coverage_threshold = 2;  // Filter singleton (erroneous) mers.
  Assembler assembler(options);
  AssemblyResult result = assembler.Assemble(reads);

  ASSERT_GT(result.contigs.size(), 0u);
  uint64_t total = 0;
  uint64_t matching = 0;
  for (const ContigRecord& c : result.contigs) {
    if (c.circular) continue;
    total += c.seq.size();
    if (IsGenomeSubstring(c.seq.ToString(), g, g_rc)) {
      matching += c.seq.size();
    }
  }
  // Error correction should leave the vast majority of contig bases exact.
  EXPECT_GT(total, genome.size() / 2);
  EXPECT_GT(static_cast<double>(matching),
            0.95 * static_cast<double>(total));
}

TEST(PipelineTest, TipsAndBubblesAreRemoved) {
  GenomeConfig gconfig;
  gconfig.length = 12000;
  gconfig.repeat_families = 0;
  gconfig.seed = 17;
  PackedSequence genome = GenerateGenome(gconfig);

  ReadSimConfig rconfig;
  rconfig.read_length = 80;
  rconfig.coverage = 50;
  rconfig.error_rate = 0.01;
  rconfig.seed = 3;
  std::vector<Read> reads = SimulateReads(genome, rconfig);

  AssemblerOptions options = SmallOptions();
  options.coverage_threshold = 2;
  Assembler assembler(options);
  AssemblyResult result = assembler.Assemble(reads);

  // With errors at 1% and 50x coverage, error correction must fire.
  EXPECT_GT(result.kmer_vertices, 0u);
  // Second merge round grows contigs: N50 after round 2 >= after round 1.
  std::vector<uint64_t> round1(result.round1_contig_lengths.begin(),
                               result.round1_contig_lengths.end());
  std::vector<uint64_t> round2;
  for (const ContigRecord& c : result.contigs) round2.push_back(c.seq.size());
  auto n50 = [](std::vector<uint64_t> v) {
    std::sort(v.begin(), v.end(), std::greater<uint64_t>());
    uint64_t total = 0;
    for (auto x : v) total += x;
    uint64_t acc = 0;
    for (auto x : v) {
      acc += x;
      if (acc * 2 >= total) return x;
    }
    return v.empty() ? uint64_t{0} : v.back();
  };
  EXPECT_GE(n50(round2), n50(round1));
}

// The logical worker count only partitions the graph: the contigs, as a
// canonical multiset, and every job's supersteps, messages and message
// bytes must not depend on it. Superstep 0 of labeling addresses each
// ambiguous vertex's neighbors by their slots in their own partitions, so
// a slot resolved in the wrong partition shows up here. The reads are
// noisy enough that tip removal fires, so the grid covers error correction
// as well.
TEST(PipelineTest, ContigsAndCountsIndependentOfWorkerCount) {
  GenomeConfig gconfig;
  gconfig.length = 30000;
  gconfig.repeat_families = 2;
  gconfig.seed = 53;
  ReadSimConfig rconfig;
  rconfig.read_length = 100;
  rconfig.coverage = 10;
  rconfig.error_rate = 0.02;
  rconfig.seed = 8;
  const std::vector<Read> reads =
      SimulateReads(GenerateGenome(gconfig), rconfig);

  struct JobCounts {
    std::string name;
    uint32_t supersteps = 0;
    uint64_t messages = 0;
    uint64_t message_bytes = 0;
    bool operator==(const JobCounts&) const = default;
  };
  std::vector<std::string> want_contigs;
  std::vector<JobCounts> want_jobs;
  for (uint32_t workers : {1u, 5u, 16u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AssemblerOptions options = SmallOptions(31);
    options.coverage_threshold = 2;
    options.tip_length_threshold = 80;
    options.num_workers = workers;
    const AssemblyResult result = Assembler(options).Assemble(reads);
    EXPECT_GT(result.tips_removed, 0u);

    std::vector<std::string> contigs;
    for (const ContigRecord& c : result.contigs) {
      contigs.push_back(std::min(c.seq.ToString(),
                                 c.seq.ReverseComplement().ToString()));
    }
    std::sort(contigs.begin(), contigs.end());
    std::vector<JobCounts> jobs;
    for (const RunStats& job : result.stats.jobs) {
      jobs.push_back(JobCounts{job.job_name, job.num_supersteps(),
                               job.total_messages(), job.total_bytes()});
    }
    if (workers == 1) {
      ASSERT_FALSE(contigs.empty());
      want_contigs = std::move(contigs);
      want_jobs = std::move(jobs);
      continue;
    }
    EXPECT_TRUE(contigs == want_contigs)
        << contigs.size() << " contigs against " << want_contigs.size();
    ASSERT_EQ(jobs.size(), want_jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_TRUE(jobs[j] == want_jobs[j])
          << jobs[j].name << ": " << jobs[j].supersteps << " supersteps, "
          << jobs[j].messages << " messages, " << jobs[j].message_bytes
          << " bytes against " << want_jobs[j].supersteps << ", "
          << want_jobs[j].messages << ", " << want_jobs[j].message_bytes;
    }
  }
}

TEST(DbgConstructionTest, CoverageThresholdFiltersErrorMers) {
  GenomeConfig gconfig;
  gconfig.length = 5000;
  gconfig.repeat_families = 0;
  gconfig.seed = 41;
  PackedSequence genome = GenerateGenome(gconfig);

  ReadSimConfig rconfig;
  rconfig.read_length = 70;
  rconfig.coverage = 30;
  rconfig.error_rate = 0.01;
  rconfig.seed = 8;
  std::vector<Read> reads = SimulateReads(genome, rconfig);

  AssemblerOptions strict = SmallOptions();
  strict.coverage_threshold = 3;
  AssemblerOptions lax = SmallOptions();
  lax.coverage_threshold = 1;

  DbgResult strict_dbg = BuildDbg(reads, strict);
  DbgResult lax_dbg = BuildDbg(reads, lax);
  EXPECT_LT(strict_dbg.surviving_edge_mers, lax_dbg.surviving_edge_mers);
  EXPECT_EQ(strict_dbg.distinct_edge_mers, lax_dbg.distinct_edge_mers);
  EXPECT_LT(strict_dbg.graph.live_size(), lax_dbg.graph.live_size());
}

TEST(DbgConstructionTest, ReadsWithNsAreSplit) {
  // One 'N' in the middle: (k+1)-mers spanning it must not be produced.
  AssemblerOptions options = SmallOptions(5);
  std::vector<Read> reads = {
      {"r1", "ACGTACGTACGTNACGTACGTACGT", ""},
  };
  DbgResult dbg = BuildDbg(reads, options);
  // Each half is 12 long: 12 - 6 + 1 = 7 edge mers per half, with overlap
  // between halves' mer sets (identical halves) -> distinct canonical mers.
  EXPECT_GT(dbg.distinct_edge_mers, 0u);
  dbg.graph.ForEach([&](const AsmNode& node) {
    EXPECT_EQ(node.kind, NodeKind::kKmer);
  });
}

std::string ReverseComplement(const std::string& s) {
  std::string rc(s.rbegin(), s.rend());
  for (char& c : rc) {
    c = c == 'A' ? 'T' : c == 'C' ? 'G' : c == 'G' ? 'C' : 'A';
  }
  return rc;
}

/// One edge as a vertex stores it: (neighbor, own end, neighbor's end,
/// coverage), the k-mers spelled out.
using EdgeView = std::tuple<std::string, NodeEnd, NodeEnd, uint32_t>;

// Phase (ii) oracle: every vertex's edges, derived from the surviving edge
// mers of the serial counter with string operations only. An edge mer
// reads its prefix k-mer then its suffix k-mer, so it leaves the prefix at
// the prefix's 3' end and enters the suffix at the suffix's 5' end; a
// vertex stores the smaller of a k-mer and its reverse complement, and one
// stored reverse-complemented sees that edge at its other end.
TEST(DbgConstructionTest, VertexEdgesMatchStringOracle) {
  GenomeConfig gconfig;
  gconfig.length = 3000;
  gconfig.repeat_families = 1;
  gconfig.repeat_length = 100;
  gconfig.repeat_copies = 3;
  gconfig.seed = 29;
  PackedSequence genome = GenerateGenome(gconfig);
  ReadSimConfig rconfig;
  rconfig.read_length = 60;
  rconfig.coverage = 15;
  rconfig.error_rate = 0.01;
  rconfig.seed = 12;
  const std::vector<Read> reads = SimulateReads(genome, rconfig);

  for (int k : {3, 5, 11, 31}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    AssemblerOptions options = SmallOptions(k);
    options.coverage_threshold = 2;
    KmerCountConfig count_config;
    count_config.mer_length = k + 1;
    count_config.num_workers = options.num_workers;
    count_config.coverage_threshold = options.coverage_threshold;
    std::map<std::string, std::vector<EdgeView>> want;
    uint64_t surviving = 0;
    for (const auto& part : CountCanonicalMersSerial(reads, count_config)) {
      for (const auto& [code, coverage] : part) {
        ++surviving;
        const std::string mer = Kmer(code, k + 1).ToString();
        const std::string prefix = mer.substr(0, k);
        const std::string suffix = mer.substr(1);
        const std::string u = std::min(prefix, ReverseComplement(prefix));
        const std::string v = std::min(suffix, ReverseComplement(suffix));
        const NodeEnd u_end = prefix == u ? NodeEnd::k3 : NodeEnd::k5;
        const NodeEnd v_end = suffix == v ? NodeEnd::k5 : NodeEnd::k3;
        want[u].emplace_back(v, u_end, v_end, coverage);
        want[v].emplace_back(u, v_end, u_end, coverage);
      }
    }
    ASSERT_GT(surviving, 0u);
    for (auto& [vertex, edges] : want) std::sort(edges.begin(), edges.end());

    const DbgResult dbg = BuildDbg(reads, options);
    EXPECT_EQ(dbg.surviving_edge_mers, surviving);
    uint64_t vertices = 0;
    uint64_t total_edges = 0;
    dbg.graph.ForEach([&](const AsmNode& node) {
      ++vertices;
      total_edges += node.edges.size();
      ASSERT_TRUE(IsKmerId(node.id));
      const std::string vertex = Kmer(node.id, k).ToString();
      std::vector<EdgeView> got;
      uint32_t min_coverage = UINT32_MAX;
      for (const BiEdge& e : node.edges) {
        got.emplace_back(Kmer(e.to, k).ToString(), e.my_end, e.to_end,
                         e.coverage);
        min_coverage = std::min(min_coverage, e.coverage);
      }
      std::sort(got.begin(), got.end());
      const auto it = want.find(vertex);
      ASSERT_NE(it, want.end()) << vertex;
      EXPECT_EQ(got, it->second) << vertex;
      EXPECT_EQ(node.coverage, min_coverage) << vertex;
    });
    EXPECT_EQ(vertices, want.size());
    EXPECT_EQ(total_edges, 2 * surviving);
  }
}

// Phase (ii)'s reduce partitions become the graph's partitions as they
// stand, which holds only because the shuffle routes each vertex to
// PartitionOf(id): every vertex must sit in its hash partition, at the
// slot its index names, and each index must hold exactly its partition.
TEST(DbgConstructionTest, VerticesSitInTheirHashPartition) {
  GenomeConfig gconfig;
  gconfig.length = 4000;
  gconfig.seed = 17;
  ReadSimConfig rconfig;
  rconfig.read_length = 80;
  rconfig.coverage = 10;
  rconfig.error_rate = 0.01;
  rconfig.seed = 5;
  const std::vector<Read> reads =
      SimulateReads(GenerateGenome(gconfig), rconfig);

  for (uint32_t workers : {1u, 3u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AssemblerOptions options = SmallOptions();
    options.num_workers = workers;
    const DbgResult dbg = BuildDbg(reads, options);
    ASSERT_EQ(dbg.graph.num_workers(), workers);
    ASSERT_GT(dbg.graph.size(), 0u);
    for (uint32_t p = 0; p < workers; ++p) {
      const auto& part = dbg.graph.partition(p);
      EXPECT_EQ(part.index.size(), part.vertices.size());
      for (uint32_t slot = 0; slot < part.vertices.size(); ++slot) {
        const uint64_t id = part.vertices[slot].id;
        EXPECT_EQ(PartitionOf(id, workers), p) << id;
        EXPECT_EQ(part.index.Find(id), slot) << id;
      }
    }
  }
}

}  // namespace
}  // namespace ppa
