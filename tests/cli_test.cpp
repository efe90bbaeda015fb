// Tests for the ppa_assemble CLI driver (cli/assemble_cli.h): flag parsing
// and the end-to-end acceptance properties — assembling an exported
// simulated FASTQ produces contigs whose QUAST-style metrics equal the
// library pipeline's on the same reads, and counts exactly what the serial
// counting oracle counts.
#include "cli/assemble_cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/assembler.h"
#include "dbg/kmer_counter.h"
#include "io/fastx.h"
#include "net/worker.h"
#include "quality/quast.h"
#include "sim/datasets.h"
#include "sim/fastq_export.h"
#include "util/json.h"

namespace ppa {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool Parse(std::vector<const char*> args, AssembleCliOptions* opts,
           std::string* error) {
  bool help = false;
  return ParseAssembleCliArgs(static_cast<int>(args.size()), args.data(),
                              opts, &help, error);
}

TEST(AssembleCliParseTest, FlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"-k", "21", "--theta", "3", "--tip-length", "60",
                     "--bubble-edit", "4", "--workers", "8", "--threads", "2",
                     "--labeling", "sv", "--shards", "16",
                     "--memory-budget-bytes", "123456", "--spill-dir",
                     "/tmp/spill-parent", "--contigs", "c.fasta", "--stats",
                     "s.txt", "--reference", "r.fasta", "in.fastq",
                     "in2.fasta"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.k, 21);
  EXPECT_EQ(opts.assembler.coverage_threshold, 3u);
  EXPECT_EQ(opts.assembler.tip_length_threshold, 60u);
  EXPECT_EQ(opts.assembler.bubble_edit_distance, 4u);
  EXPECT_EQ(opts.assembler.num_workers, 8u);
  EXPECT_EQ(opts.assembler.num_threads, 2u);
  EXPECT_EQ(opts.labeling, LabelingMethod::kSimplifiedSv);
  EXPECT_EQ(opts.assembler.kmer_shards, 16u);
  EXPECT_EQ(opts.assembler.memory_budget_bytes, 123456u);
  EXPECT_EQ(opts.assembler.spill_dir, "/tmp/spill-parent");
  EXPECT_EQ(opts.contigs_out, "c.fasta");
  EXPECT_EQ(opts.stats_out, "s.txt");
  EXPECT_EQ(opts.reference, "r.fasta");
  ASSERT_EQ(opts.inputs.size(), 2u);
  EXPECT_EQ(opts.inputs[0], "in.fastq");
  EXPECT_EQ(opts.inputs[1], "in2.fasta");
  // The budget is the one memory setting: the spill policy and the
  // counting queue bound follow from it and have no flags of their own.
  for (const char* removed : {"--spill-mode", "--queue-bytes"}) {
    AssembleCliOptions rejected;
    EXPECT_FALSE(Parse({removed, "1", "in.fastq"}, &rejected, &error))
        << removed;
    EXPECT_NE(error.find(std::string("unknown flag '") + removed + "'"),
              std::string::npos)
        << error;
  }
}

TEST(AssembleCliParseTest, RejectsBadInput) {
  AssembleCliOptions opts;
  std::string error;
  EXPECT_FALSE(Parse({}, &opts, &error));  // no inputs
  opts = {};
  EXPECT_FALSE(Parse({"--bogus", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--bogus"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"-k", "notanint", "in.fastq"}, &opts, &error));
  opts = {};
  EXPECT_FALSE(Parse({"-k"}, &opts, &error));  // missing value
  opts = {};
  // Negative values must not wrap through strtoull.
  EXPECT_FALSE(Parse({"--theta", "-1", "in.fastq"}, &opts, &error));
  opts = {};
  // Range violations are usage errors, not PPA_CHECK aborts.
  EXPECT_FALSE(Parse({"-k", "33", "in.fastq"}, &opts, &error));
  opts = {};
  EXPECT_FALSE(Parse({"-k", "20", "in.fastq"}, &opts, &error));  // even
  EXPECT_NE(error.find("odd"), std::string::npos);
  opts = {};
  EXPECT_FALSE(Parse({"--workers", "0", "in.fastq"}, &opts, &error));
  opts = {};
  // Values past the field's range fail naming the range instead of
  // wrapping: k = 2^32 + 31 would run as k = 31, 2^32 + 1 threads as 1.
  const std::pair<const char*, const char*> kOutOfRange[] = {
      {"--net-timeout-ms", "3000000000"},
      {"-k", "4294967327"},
      {"--threads", "4294967297"},
      {"--workers", "4294967296"},
  };
  for (const auto& [flag, value] : kOutOfRange) {
    EXPECT_FALSE(Parse({flag, value, "in.fastq"}, &opts, &error)) << flag;
    EXPECT_NE(error.find(std::string(flag) + ": expected an integer in [0, "),
              std::string::npos)
        << error;
    opts = {};
  }
  // Retired flags are refused, never silently accepted.
  for (const char* removed :
       {"--coverage-threshold", "--verbose", "--batch-reads", "--batch-bases",
        "--queue-depth", "--shuffle", "--in-memory", "--serial-counting",
        "--dbg-out", "--progress", "--net-window-bytes"}) {
    EXPECT_FALSE(Parse({removed, "1", "in.fastq"}, &opts, &error)) << removed;
    EXPECT_NE(error.find(std::string("unknown flag '") + removed + "'"),
              std::string::npos)
        << error;
    opts = {};
  }
  EXPECT_FALSE(Parse({"--spill-mode", "sometimes", "in.fastq"}, &opts,
                     &error));
  EXPECT_NE(error.find("unknown flag '--spill-mode'"), std::string::npos)
      << error;
  opts = {};
  EXPECT_FALSE(
      Parse({"--memory-budget-bytes", "-5", "in.fastq"}, &opts, &error));
  opts = {};
  bool help = false;
  std::vector<const char*> help_args = {"--help"};
  EXPECT_TRUE(ParseAssembleCliArgs(1, help_args.data(), &opts, &help,
                                   &error));
  EXPECT_TRUE(help);
}

TEST(AssembleCliParseTest, ObservabilityFlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--report-json", "run.json", "--trace-out", "trace.json",
                     "--log-level", "debug", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.report_json, "run.json");
  EXPECT_EQ(opts.trace_out, "trace.json");
  EXPECT_EQ(opts.log_level, "debug");

  // Bad levels are a usage error at parse time, not a silent default.
  opts = {};
  EXPECT_FALSE(Parse({"--log-level", "chatty", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--log-level"), std::string::npos) << error;

  // --metrics-listen takes any endpoint spec and is validated at parse
  // time, so a typo fails before the pipeline spends an hour running.
  opts = {};
  ASSERT_TRUE(
      Parse({"--metrics-listen", "127.0.0.1:9464", "in.fastq"}, &opts,
            &error))
      << error;
  EXPECT_EQ(opts.metrics_listen, "127.0.0.1:9464");
  opts = {};
  EXPECT_FALSE(
      Parse({"--metrics-listen", "not a port", "in.fastq"}, &opts, &error));
  EXPECT_NE(error.find("--metrics-listen"), std::string::npos) << error;
}

TEST(AssembleCliParseTest, DistributedFlagsMapOntoOptions) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--shard-workers", "3", "--worker-binary", "/bin/w",
                     "--net-timeout-ms", "777", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.shard_workers, 3u);
  EXPECT_EQ(opts.assembler.worker_binary, "/bin/w");
  EXPECT_EQ(opts.assembler.net_timeout_ms, 777);

  opts = {};
  ASSERT_TRUE(Parse({"--worker-endpoints", "unix:/a.sock,9000", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.worker_endpoints, "unix:/a.sock,9000");
}

TEST(AssembleCliParseTest, FaultPlanValidatedAtParseTime) {
  AssembleCliOptions opts;
  std::string error;
  ASSERT_TRUE(Parse({"--shard-workers", "2", "--fault-plan",
                     "seed=7,kill-worker@chunk=3@worker=0", "in.fastq"},
                    &opts, &error))
      << error;
  EXPECT_EQ(opts.assembler.fault_plan, "seed=7,kill-worker@chunk=3@worker=0");

  // A bad plan is a usage error here, not a throw deep inside fleet setup.
  opts = {};
  EXPECT_FALSE(Parse({"--fault-plan", "explode@frame=1", "in.fastq"}, &opts,
                     &error));
  EXPECT_NE(error.find("--fault-plan"), std::string::npos) << error;
}

TEST(AssembleCliRunTest, MissingInputFailsGracefully) {
  AssembleCliOptions opts;
  opts.inputs = {TempPath("does_not_exist.fastq")};
  std::ostringstream out, err;
  EXPECT_EQ(RunAssembleCli(opts, out, err), 1);
  EXPECT_NE(err.str().find("cannot open input"), std::string::npos);
}

/// Contig sequences of a FASTA file as a sorted multiset (order-insensitive
/// comparison between pipeline variants).
std::vector<std::string> SortedContigSeqs(const std::string& path) {
  std::vector<std::string> seqs;
  for (const Read& r : ParseFasta(ReadFile(path))) seqs.push_back(r.bases);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

/// The numeric value of `key=` in a text stats report. The key is either
/// mid-line (" reads=") or at line start ("reads=").
uint64_t ReportField(const std::string& stats, const std::string& key) {
  size_t at = stats.find(" " + key + "=");
  if (at == std::string::npos) at = stats.find("\n" + key + "=");
  EXPECT_NE(at, std::string::npos) << key << " missing in:\n" << stats;
  if (at == std::string::npos) return 0;
  return static_cast<uint64_t>(std::stoull(stats.substr(at + key.size() + 2)));
}

/// The line of a text stats report that starts with `prefix` ("spill:"),
/// for keys that more than one line carries.
std::string ReportLine(const std::string& stats, const std::string& prefix) {
  size_t at = stats.find("\n" + prefix);
  EXPECT_NE(at, std::string::npos) << prefix << " missing in:\n" << stats;
  if (at == std::string::npos) return "";
  ++at;
  return stats.substr(at, stats.find('\n', at) - at);
}

// The acceptance property: ppa_assemble on an exported simulated FASTQ ==
// the library pipeline on the dataset's reads in memory, asserted on QUAST
// metrics. Both stream (Assemble's vector overload adapts the reads through
// VectorReadSource), so this pins FASTQ parsing and the CLI's wiring;
// TwoFileRunCountsMatchSerialOracle is the independent check.
TEST(AssembleCliRunTest, StreamedFileRunMatchesInMemoryPipeline) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);  // ~10 kbp genome
  const std::string prefix = TempPath("hc2_e2e");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);
  ASSERT_EQ(written.size(), 2u);

  AssembleCliOptions opts;
  opts.inputs = {written[0]};
  opts.reference = written[1];
  opts.contigs_out = TempPath("hc2_e2e.contigs.fasta");
  opts.stats_out = TempPath("hc2_e2e.stats.txt");
  opts.assembler.num_workers = 8;
  opts.assembler.num_threads = 2;
  // A small budget caps the counting queue bound (forcing backpressure) and
  // spills the shuffle.
  opts.assembler.memory_budget_bytes = 65536;
  opts.assembler.spill_dir = ::testing::TempDir();
  opts.stream.batch_reads = 100;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();

  // In-memory reference run with identical options.
  Assembler assembler(opts.assembler);
  AssemblyResult in_memory = assembler.Assemble(dataset.reads);
  QuastConfig quast_config;  // same min_contig default as the CLI
  QuastReport expected = EvaluateAssembly(in_memory.ContigStrings(),
                                          &dataset.reference, quast_config);

  std::vector<Read> cli_contigs = ParseFasta(ReadFile(opts.contigs_out));
  std::vector<std::string> cli_seqs;
  for (const Read& r : cli_contigs) cli_seqs.push_back(r.bases);
  QuastReport actual =
      EvaluateAssembly(cli_seqs, &dataset.reference, quast_config);

  EXPECT_EQ(actual.num_contigs, expected.num_contigs);
  EXPECT_EQ(actual.total_length, expected.total_length);
  EXPECT_EQ(actual.n50, expected.n50);
  EXPECT_EQ(actual.largest_contig, expected.largest_contig);
  EXPECT_EQ(actual.misassemblies, expected.misassemblies);
  EXPECT_DOUBLE_EQ(actual.genome_fraction, expected.genome_fraction);
  EXPECT_DOUBLE_EQ(actual.mismatches_per_100kbp,
                   expected.mismatches_per_100kbp);

  // Stronger: the contig sequence multiset is identical.
  std::vector<std::string> expected_seqs;
  for (const std::string& s : in_memory.ContigStrings()) {
    expected_seqs.push_back(s);
  }
  std::sort(expected_seqs.begin(), expected_seqs.end());
  EXPECT_EQ(SortedContigSeqs(opts.contigs_out), expected_seqs);

  // The stats report carries the streaming bound evidence and the shuffle
  // volume.
  const std::string stats = ReadFile(opts.stats_out);
  EXPECT_NE(stats.find("\ncounting: minimizer_len="), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("shuffle: pairs_shuffled="), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("peak_queued_bytes="), std::string::npos);
  EXPECT_NE(stats.find("n50="), std::string::npos);
  EXPECT_NE(stats.find("queue_bound_bytes=65536"), std::string::npos)
      << stats;
}

// The spill acceptance property: `ppa_assemble --memory-budget-bytes B` on
// the HC-2-sim dataset produces bit-identical contigs and counts to the run
// without a budget, at B = 1 (every shuffle chunk through disk) and at
// B = 256 KiB (chunks that fit stay in memory), with peak resident chunk
// bytes and the counting queue bound held under a budget of several chunks
// (asserted from the report). The budget flag is the only memory setting
// each run passes: it alone turns spilling on.
TEST(AssembleCliRunTest, SpillBudgetsMatchTheRunWithoutABudget) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_spill");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);
  const std::string spill_dir = ::testing::TempDir();

  auto run = [&](uint64_t budget) {
    const std::string tag = "hc2_spill.budget" + std::to_string(budget);
    const std::string budget_flag = std::to_string(budget);
    const std::string contigs = TempPath(tag + ".fasta");
    const std::string stats = TempPath(tag + ".txt");
    AssembleCliOptions opts;
    std::string error;
    EXPECT_TRUE(Parse({"--threads", "2", "--workers", "8",
                       "--memory-budget-bytes", budget_flag.c_str(),
                       "--spill-dir", spill_dir.c_str(), "--contigs",
                       contigs.c_str(), "--stats", stats.c_str(),
                       "--reference", written[1].c_str(), written[0].c_str()},
                      &opts, &error))
        << error;
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions unbudgeted = run(0);
  const std::string unbudgeted_stats = ReadFile(unbudgeted.stats_out);
  EXPECT_NE(unbudgeted_stats.find("spill: budget_bytes=0 "), std::string::npos)
      << unbudgeted_stats;
  EXPECT_EQ(
      ReportField(ReportLine(unbudgeted_stats, "spill:"), "spilled_bytes"), 0u);

  for (uint64_t budget : {uint64_t{1}, uint64_t{262144}}) {
    const AssembleCliOptions budgeted = run(budget);
    const std::string label = "budget=" + std::to_string(budget);
    // Bit-identical contigs.
    EXPECT_EQ(SortedContigSeqs(budgeted.contigs_out),
              SortedContigSeqs(unbudgeted.contigs_out))
        << label;
    const std::string stats = ReadFile(budgeted.stats_out);
    // Identical counting + assembly metrics.
    for (const char* key : {"windows", "max_shard_windows", "distinct",
                            "surviving", "n50", "total_length",
                            "pairs_shuffled"}) {
      EXPECT_EQ(ReportField(stats, key), ReportField(unbudgeted_stats, key))
          << label << " " << key;
    }
    // The run carries the budget, really spilled and replayed everything
    // it spilled.
    const std::string spill = ReportLine(stats, "spill:");
    EXPECT_EQ(ReportField(spill, "budget_bytes"), budget) << stats;
    EXPECT_GT(ReportField(spill, "spilled_chunks"), 0u) << label;
    EXPECT_GT(ReportField(spill, "spill_files"), 0u) << label;
    EXPECT_EQ(ReportField(spill, "readback_bytes"),
              ReportField(spill, "spilled_bytes"))
        << label;
    EXPECT_LE(ReportField(stats, "peak_queued_bytes"),
              ReportField(stats, "queue_bound_bytes"))
        << label;
    if (budget == 1) continue;
    // The pipeline-wide peak of resident chunk bytes and the counting
    // queue bound stayed under a budget of several chunks.
    EXPECT_LE(ReportField(spill, "peak_resident_bytes"), budget) << label;
    EXPECT_LE(ReportField(stats, "queue_bound_bytes"), budget) << label;
  }
}

// The distributed acceptance property: ppa_assemble against a worker fleet
// produces bit-identical contigs and counting metrics to the in-process
// run on the same dataset — here over in-process servers on unix sockets
// (the spawned-process path is exercised by DistributedSpawnedWorkersRun
// and the CI smoke job).
TEST(AssembleCliRunTest, DistributedEndpointsMatchInProcess) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_net");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  std::vector<std::unique_ptr<net::ShardWorkerServer>> servers;
  std::string endpoints;
  for (int w = 0; w < 2; ++w) {
    net::WorkerOptions options;
    options.listen = "unix:" + TempPath("hc2_net_w" + std::to_string(w)) +
                     ".sock";
    servers.push_back(std::make_unique<net::ShardWorkerServer>(options));
    std::string error;
    ASSERT_TRUE(servers.back()->Start(&error)) << error;
    if (!endpoints.empty()) endpoints += ',';
    endpoints += options.listen;
  }

  auto run = [&](const std::string& worker_endpoints, const char* tag,
                 uint64_t budget = 0) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.contigs_out = TempPath(std::string("hc2_net.") + tag + ".fasta");
    opts.stats_out = TempPath(std::string("hc2_net.") + tag + ".txt");
    opts.assembler.num_workers = 8;
    opts.assembler.num_threads = 2;
    opts.assembler.worker_endpoints = worker_endpoints;
    opts.assembler.memory_budget_bytes = budget;
    opts.assembler.spill_dir = ::testing::TempDir();
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions local = run("", "local");
  const AssembleCliOptions distributed = run(endpoints, "dist");
  // A fleet under a budget: counting goes to the workers, the shuffle
  // spills to the local spill directory.
  const AssembleCliOptions dist_spill = run(endpoints, "dist_spill", 262144);
  for (auto& server : servers) server->Stop();

  EXPECT_EQ(SortedContigSeqs(distributed.contigs_out),
            SortedContigSeqs(local.contigs_out));
  EXPECT_EQ(SortedContigSeqs(dist_spill.contigs_out),
            SortedContigSeqs(local.contigs_out));

  const std::string local_stats = ReadFile(local.stats_out);
  const std::string dist_stats = ReadFile(distributed.stats_out);
  const std::string dist_spill_stats = ReadFile(dist_spill.stats_out);
  for (const char* key : {"windows", "distinct", "surviving", "n50",
                          "total_length", "pairs_shuffled"}) {
    EXPECT_EQ(ReportField(dist_stats, key), ReportField(local_stats, key)) << key;
    EXPECT_EQ(ReportField(dist_spill_stats, key),
              ReportField(local_stats, key))
        << key;
  }
  EXPECT_NE(dist_stats.find("net: workers=2"), std::string::npos)
      << dist_stats;
  EXPECT_NE(local_stats.find("net: workers=0"), std::string::npos)
      << local_stats;
  EXPECT_GT(ReportField(dist_stats, "chunks"), 0u);
  EXPECT_GT(ReportField(dist_stats, "sent_bytes"), 0u);
  // A clean fleet's tables live in the workers; the local run's in the
  // process.
  EXPECT_GT(ReportField(local_stats, "count_table_bytes"), 0u);
  EXPECT_EQ(ReportField(dist_stats, "count_table_bytes"), 0u);
  EXPECT_NE(dist_spill_stats.find("net: workers=2"), std::string::npos)
      << dist_spill_stats;
  EXPECT_NE(dist_spill_stats.find("spill: budget_bytes=262144 "),
            std::string::npos)
      << dist_spill_stats;
  const std::string dist_spill_line = ReportLine(dist_spill_stats, "spill:");
  EXPECT_GT(ReportField(dist_spill_line, "spilled_chunks"), 0u);
  EXPECT_EQ(ReportField(dist_spill_line, "readback_bytes"),
            ReportField(dist_spill_line, "spilled_bytes"));
  // The fleet run held the budget too: it caps the counting queue bound,
  // and the chunk journal's budget charge ends with counting instead of
  // lasting through phase (ii)'s shuffle.
  EXPECT_LE(ReportField(dist_spill_stats, "peak_resident_bytes"), 262144u);
  EXPECT_LE(ReportField(dist_spill_stats, "queue_bound_bytes"), 262144u);
}

// The spawned-fleet path: --shard-workers forks real ppa_shard_worker
// processes (the binary sits next to this test binary in the build tree)
// and must produce the same contigs. Skipped when the binary is absent
// (non-standard build layouts).
TEST(AssembleCliRunTest, DistributedSpawnedWorkersRun) {
  std::string self(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", self.data(), self.size());
  ASSERT_GT(n, 0);
  self.resize(static_cast<size_t>(n));
  const std::string worker_binary =
      self.substr(0, self.rfind('/') + 1) + "ppa_shard_worker";
  if (!std::ifstream(worker_binary).good()) {
    GTEST_SKIP() << "ppa_shard_worker not found at " << worker_binary;
  }

  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.02);
  const std::string prefix = TempPath("hc2_spawn");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  auto run = [&](uint32_t workers, const char* tag) {
    AssembleCliOptions opts;
    opts.inputs = {written[0]};
    opts.contigs_out = TempPath(std::string("hc2_spawn.") + tag + ".fasta");
    opts.assembler.num_workers = 4;
    opts.assembler.num_threads = 2;
    opts.assembler.shard_workers = workers;
    opts.assembler.worker_binary = worker_binary;
    std::ostringstream out, err;
    EXPECT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();
    return opts;
  };
  const AssembleCliOptions local = run(0, "local");
  const AssembleCliOptions spawned = run(2, "spawned");
  EXPECT_EQ(SortedContigSeqs(spawned.contigs_out),
            SortedContigSeqs(local.contigs_out));
}

// The golden-schema property of --report-json and --trace-out: both files
// are valid JSON with the required keys, and every total in run.json equals
// the value printed in the legacy text report — they render one registry
// snapshot.
TEST(AssembleCliRunTest, ReportJsonAndTraceMatchTextReport) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.04);
  const std::string prefix = TempPath("hc2_obs");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);

  AssembleCliOptions opts;
  opts.inputs = {written[0]};
  opts.reference = written[1];
  opts.contigs_out = TempPath("hc2_obs.contigs.fasta");
  opts.stats_out = TempPath("hc2_obs.stats.txt");
  opts.report_json = TempPath("hc2_obs.run.json");
  opts.trace_out = TempPath("hc2_obs.trace.json");
  opts.assembler.num_workers = 8;
  opts.assembler.num_threads = 2;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();

  const std::string stats = ReadFile(opts.stats_out);

  JsonValue run;
  std::string error;
  ASSERT_TRUE(ParseJson(ReadFile(opts.report_json), &run, &error)) << error;
  ASSERT_NE(run.Find("schema"), nullptr);
  EXPECT_EQ(run.Find("schema")->str, "ppa.run_report.v1");
  // The top level carries no run fact for a choice that does not exist:
  // every run streams, and a budget alone turns spilling on.
  std::vector<std::string> keys;
  for (const auto& [key, value] : run.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"inputs", "metrics", "schema",
                                            "wall_seconds", "workers"}));
  ASSERT_EQ(run.Find("inputs")->array.size(), 1u);
  EXPECT_EQ(run.Find("inputs")->array[0].str, written[0]);
  ASSERT_NE(run.Find("workers"), nullptr);  // present (empty: in-process)
  EXPECT_TRUE(run.Find("workers")->array.empty());

  const JsonValue* metrics = run.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Every JSON total equals the text report's value — one snapshot.
  const std::pair<const char*, const char*> kPairs[] = {
      {"ingest.reads", "reads"},
      {"ingest.bases", "bases"},
      {"counting.windows", "windows"},
      {"counting.max_shard_windows", "max_shard_windows"},
      {"counting.distinct", "distinct"},
      {"counting.surviving", "surviving"},
      {"counting.pass1_bytes", "pass1_bytes"},
      {"shuffle.pairs_shuffled", "pairs_shuffled"},
      {"dbg.kmer_vertices", "kmer_vertices"},
      {"labeling.cycle_vertices", "cycle_vertices"},
      {"bubble_filtering.contigs_pruned", "bubble_contigs_pruned"},
      {"tip_removal.vertices_removed", "tip_vertices_removed"},
      {"contigs.n50", "n50"},
      {"contigs.total_length", "total_length"},
      {"dbg.peak_rss_kb", "dbg_peak_rss_kb"},
      {"run.peak_rss_kb", "peak_rss_kb"},
      {"counting.table_bytes", "count_table_bytes"},
  };
  for (const auto& [metric, key] : kPairs) {
    EXPECT_EQ(metrics->GetU64(metric), ReportField(stats, key)) << metric;
  }
  // Published even when list ranking leaves no cycle, or error correction
  // removes nothing.
  for (const char* metric :
       {"labeling.cycle_vertices", "bubble_filtering.contigs_pruned",
        "tip_removal.vertices_removed"}) {
    EXPECT_NE(metrics->Find(metric), nullptr) << metric;
  }
  // The process's high-water mark when DBG construction returned is
  // positive and at most the one the run ended with.
  EXPECT_GT(metrics->GetU64("dbg.peak_rss_kb"), 0u);
  EXPECT_LE(metrics->GetU64("dbg.peak_rss_kb"),
            metrics->GetU64("run.peak_rss_kb"));
  // Every shard's table holds at least its 2048-slot floor of 12-byte
  // slots, and the tables together stay at most 85% full.
  const uint64_t table_bytes = metrics->GetU64("counting.table_bytes");
  EXPECT_EQ(table_bytes % 12, 0u);
  EXPECT_GE(table_bytes, metrics->GetU64("counting.shards") * 2048 * 12);
  EXPECT_LE(metrics->GetU64("counting.distinct") * 20 * 12, table_bytes * 17);
  // The fullest shard holds at least the mean share and at most every window.
  const uint64_t max_shard_windows =
      metrics->GetU64("counting.max_shard_windows");
  EXPECT_GE(max_shard_windows * metrics->GetU64("counting.shards"),
            metrics->GetU64("counting.windows"));
  EXPECT_LE(max_shard_windows, metrics->GetU64("counting.windows"));
  // The live io.* counters saw the same stream the ingest totals did.
  EXPECT_EQ(metrics->GetU64("io.reads"), ReportField(stats, "reads"));
  EXPECT_EQ(metrics->GetU64("io.bases"), ReportField(stats, "bases"));

  JsonValue trace;
  ASSERT_TRUE(ParseJson(ReadFile(opts.trace_out), &trace, &error)) << error;
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::vector<std::string> names;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    names.push_back(name->str);
  }
  for (const char* span : {"read_stream", "scan_batch", "count_chunk",
                           "map_phase", "reduce_phase", "contig_labeling",
                           "contig_merging"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), span), names.end())
        << span << " missing from trace";
  }
}

// An oracle independent of the pipeline's counter: ppa_assemble on reads
// split across two FASTQ files counts exactly what CountCanonicalMersSerial
// counts over all of them with the same k + 1, workers and theta.
TEST(AssembleCliRunTest, TwoFileRunCountsMatchSerialOracle) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.02);
  const auto middle = dataset.reads.begin() +
                      static_cast<std::ptrdiff_t>(dataset.reads.size() / 2);
  const std::string first = TempPath("hc2_split.1.fastq");
  const std::string second = TempPath("hc2_split.2.fastq");
  ExportReadsFastq(std::vector<Read>(dataset.reads.begin(), middle), first);
  ExportReadsFastq(std::vector<Read>(middle, dataset.reads.end()), second);

  AssembleCliOptions opts;
  opts.inputs = {first, second};
  opts.contigs_out = TempPath("hc2_split.fasta");
  opts.stats_out = TempPath("hc2_split.txt");
  opts.assembler.num_workers = 4;
  opts.assembler.num_threads = 2;
  std::ostringstream out, err;
  ASSERT_EQ(RunAssembleCli(opts, out, err), 0) << err.str();

  KmerCountConfig config;
  config.mer_length = opts.assembler.k + 1;
  config.num_workers = opts.assembler.num_workers;
  config.coverage_threshold = opts.assembler.coverage_threshold;
  KmerCountStats oracle;
  CountCanonicalMersSerial(dataset.reads, config, &oracle);
  ASSERT_GT(oracle.surviving_mers, 0u);
  const std::string stats = ReadFile(opts.stats_out);
  EXPECT_EQ(ReportField(stats, "reads"), dataset.reads.size());
  EXPECT_EQ(ReportField(stats, "windows"), oracle.total_windows);
  EXPECT_EQ(ReportField(stats, "distinct"), oracle.distinct_mers);
  EXPECT_EQ(ReportField(stats, "surviving"), oracle.surviving_mers);
}

}  // namespace
}  // namespace ppa
