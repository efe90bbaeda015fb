// bench_pipeline: the FASTQ -> contigs benchmark, with a per-layer ledger.
//
//   bench_pipeline --workload <hc2|hc2-sv|long-clean|deep-gz|all> --seed S
//                  [--seconds N] [--trace 0|1] [--out FILE] [--workdir DIR]
//
// Each workload runs in this order:
//   1. Set-up: synthesize a genome (seed S) and reads (seed S+1), write them
//      as FASTQ (gzip for deep-gz). Repeated for a tenth of --seconds, at
//      least 5 times, between the timed reps; the builds must be
//      byte-identical and setup_s is their median.
//   2. Warm-up: one untimed ppa_assemble rep. Its contigs are the reference
//      every later rep and traced pass must reproduce byte for byte, and
//      the QUAST-style check against the simulated genome runs on them.
//   3. Timed reps (--trace 0, or no --trace): cold ppa_assemble processes
//      (the binary next to this one), fork+exec'd and reaped with wait4,
//      which gives wall time, CPU time and ru_maxrss of that child alone.
//      Reps repeat for --seconds per workload; under "all" the workloads
//      take turns.
//   4. Traced run (--trace 1, or no --trace): in-process passes that call
//      the public operations in Assembler::FinishAssembly order, taking wall
//      time, CPU time and peak RSS around each call and counts from the
//      structs the calls return; each call is also a "bench" trace span.
//      Passes at 2 threads repeat, at least 3 times, for what the
//      workload's timed reps left of --seconds (median per layer), then one
//      pass runs at 1 thread for the speedup_2t numbers.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1, both without --trace. --out (default BENCH_pipeline.json)
// gets the full record, including quartiles, host noise and provenance;
// compare.py diffs two such records. Any failed check makes the exit code 1.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cli/assemble_cli.h"
#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "io/fasta_writer.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "obs/trace.h"
#include "quality/quast.h"
#include "sim/fastq_export.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/json.h"
#include "util/timer.h"

namespace ppa::bench {
namespace {

namespace fs = std::filesystem;

// Fewer than the 4 cores of the reference box: a 2-thread ppa_assemble runs
// at most 5 threads (2 scanners, 2 counters that sleep when idle, 1
// reader), which leaves room for the bench itself and for neighbours.
constexpr unsigned kThreads = 2;
constexpr int kMinSetupBuilds = 5;
constexpr size_t kMinReps = 3;  // timed reps and traced passes, at least
constexpr double kMinGenomeFractionPct = 90.0;

struct Workload {
  const char* name;
  uint64_t genome_bp;
  double coverage;
  double error_rate;
  bool gzip;
  std::vector<std::string> flags;  // ppa_assemble flags besides --threads
};

// Why each workload exists: README.md and BENCHMARK.json.
const std::vector<Workload> kWorkloads = {
    {"hc2", 250000, 30, 0.005, false, {}},
    {"hc2-sv", 250000, 30, 0.005, false, {"--labeling", "sv"}},
    {"long-clean", 500000, 15, 0.001, false, {}},
    {"deep-gz", 100000, 300, 0.005, true, {"--theta", "10"}},
};

struct LayerMetric {
  const char* name;
  const char* unit;
  bool exact;  // a count that must repeat exactly across passes and threads
};

// The per-layer ledger, in pipeline order. Names match the library's trace
// spans and the counting.* metrics of run.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"ingest.wall_s", "s", false},
    {"ingest.mbases_per_s", "Mbase/s", false},
    {"counting.pass1_s", "s", false},
    {"counting.pass2_s", "s", false},
    {"counting.windows", "count", true},
    {"counting.distinct_mers", "count", true},
    {"counting.surviving_mers", "count", true},
    {"counting.pass1_bytes", "bytes", false},
    {"counting.queue_spin_parks", "count", false},
    {"counting.peak_queued_bytes", "bytes", false},
    {"counting.speedup_2t", "x", false},
    {"dbg_construction.wall_s", "s", false},
    {"dbg_construction.cpu_s", "s", false},
    {"dbg_construction.peak_rss_mb", "MB", false},
    {"dbg_phase2.wall_s", "s", false},
    {"dbg_phase2.pairs_shuffled", "count", true},
    {"dbg_phase2.kmer_vertices", "count", true},
    {"dbg_phase2.speedup_2t", "x", false},
    {"contig_labeling.wall_s", "s", false},
    {"contig_labeling.cpu_s", "s", false},
    {"contig_labeling.peak_rss_mb", "MB", false},
    {"contig_labeling.supersteps", "count", true},
    {"contig_labeling.messages", "count", true},
    {"contig_labeling.message_bytes", "bytes", true},
    {"contig_labeling.speedup_2t", "x", false},
    {"contig_merging.wall_s", "s", false},
    {"contig_merging.cpu_s", "s", false},
    {"contig_merging.pairs_shuffled", "count", true},
    {"contig_merging.nodes_merged", "count", true},
    {"contig_merging.speedup_2t", "x", false},
    {"bubble_filtering.wall_s", "s", false},
    {"bubble_filtering.contigs_pruned", "count", true},
    {"tip_removal.wall_s", "s", false},
    {"tip_removal.messages", "count", true},
    {"tip_removal.vertices_removed", "count", true},
    {"output.wall_s", "s", false},
    {"output.bytes", "bytes", true},
    {"traced.wall_s", "s", false},
    {"traced.unattributed_s", "s", false},
    {"traced.overhead_ratio", "ratio", false},
};

enum class Phases { kEndToEnd, kLayers, kBoth };

struct Settings {
  uint64_t seed = 1;
  double seconds = 20;  // BENCHMARK.json run_seconds
  Phases phases = Phases::kBoth;
  std::string assembler;  // ppa_assemble next to this binary
  std::string workdir;
  std::string out = "BENCH_pipeline.json";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool exact = false;
  const char* better = nullptr;  // quality metrics: "lower" or "higher"
  size_t n = 0;  // timings over reps: sample count and quartiles
  double q1 = 0;
  double q3 = 0;
};

/// Failed checks count against the run; each one is also logged.
struct Checks {
  uint64_t attempted = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    failures.push_back(what);
    std::fprintf(stderr, "bench_pipeline: FAILED: %s\n", what.c_str());
  }
};

/// One workload: its files and samples through the phases, then its metrics.
struct WorkloadResult {
  const Workload* workload = nullptr;
  std::string dir;
  std::string contigs_path;
  std::vector<std::string> args;  // ppa_assemble argv after the program
  std::string input_bytes;  // set-up build 1; every later build must match
  std::string cli_contigs;  // the warm-up's; every later run must match
  std::vector<double> setup_s, wall, cpu, rss;
  double genome_fraction_pct = 0;
  Checks checks;
  std::vector<Metric> e2e;
  // Exact for a seed, so compared seed by seed, but spread too widely
  // across seeds for a relative bound.
  std::vector<Metric> quality;
  std::vector<Metric> layers;
  size_t traced_passes = 0;
};

/// Host noise over the whole run.
struct Host {
  std::string loadavg_before;
  std::string loadavg_after;
  uint64_t steal_ticks = 0;
  double wall_s = 0;
};

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Quartile i (1..3) as Python's statistics.quantiles(v, n=4) computes it
/// (the default "exclusive" method), so compare.py and the README agree.
double Quartile(std::vector<double> v, int i) {
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  if (n == 1) return v[0];
  const int m = n + 1;
  const int j = std::clamp(i * m / 4, 1, n - 1);
  const int delta = i * m - j * 4;
  return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
}

Metric Timing(const char* name, const char* unit,
              const std::vector<double>& samples) {
  Metric m{name, unit, Median(samples)};
  m.n = samples.size();
  if (m.n > 0) {
    m.q1 = Quartile(samples, 1);
    m.q3 = Quartile(samples, 3);
  }
  return m;
}

// ---- host and process probes ----------------------------------------------

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

/// Steal ticks of the aggregate "cpu" line of /proc/stat (8th value): time
/// the hypervisor ran someone else while this box wanted the CPU.
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t fields[8] = {};
  in >> label;
  for (uint64_t& f : fields) in >> f;
  return label == "cpu" ? fields[7] : 0;
}

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
}

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

struct ProcessRun {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

/// Runs argv[0] as a child and waits for it; the rusage is the child's own.
ProcessRun RunProcess(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  ProcessRun run;
  Timer timer;
  const pid_t pid = fork();
  if (pid < 0) return run;
  if (pid == 0) {
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return run;
  }
  run.wall_s = timer.Seconds();
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  run.cpu_s = Seconds(ru.ru_utime) + Seconds(ru.ru_stime);
  run.peak_rss_mb = ru.ru_maxrss / 1024.0;  // kB -> MB
  return run;
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Runs the ppa_assemble children from a helper process forked while this
/// one is still small. A child's ru_maxrss starts at the RSS of the process
/// it was forked from (exec keeps the high-water mark), so children forked
/// from the bench after set-up or a traced pass would report the bench's
/// own RSS instead of ppa_assemble's.
class Launcher {
 public:
  Launcher() {
    int request[2], reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      Serve(request[0], reply[1]);
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    to_ = request[1];
    from_ = reply[0];
  }

  ~Launcher() {
    close(to_);  // EOF ends Serve
    close(from_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }

  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  ProcessRun Run(const std::vector<std::string>& argv) {
    std::string message;
    for (const std::string& a : argv) message.append(a).push_back('\0');
    const uint64_t size = message.size();
    ProcessRun run;
    if (pid_ <= 0 || !WriteAll(to_, &size, sizeof(size)) ||
        !WriteAll(to_, message.data(), size) ||
        !ReadAll(from_, &run, sizeof(run))) {
      return ProcessRun{};
    }
    return run;
  }

 private:
  static void Serve(int in, int out) {
    uint64_t size = 0;
    while (ReadAll(in, &size, sizeof(size))) {
      std::string message(size, '\0');
      if (!ReadAll(in, message.data(), size)) return;
      std::vector<std::string> argv;
      for (size_t start = 0; start < size;) {
        const size_t end = message.find('\0', start);
        argv.push_back(message.substr(start, end - start));
        start = end + 1;
      }
      const ProcessRun run = RunProcess(argv);
      if (!WriteAll(out, &run, sizeof(run))) return;
    }
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

// ---- files ----------------------------------------------------------------

bool ReadBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool GzipFile(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  gzFile gz = gzopen(dst.c_str(), "wb1");
  if (!in || gz == nullptr) {
    if (gz != nullptr) gzclose(gz);
    return false;
  }
  std::vector<char> buf(1 << 20);
  bool ok = true;
  while (ok && in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<unsigned>(in.gcount());
    ok = n == 0 || gzwrite(gz, buf.data(), n) == static_cast<int>(n);
  }
  return gzclose(gz) == Z_OK && ok;
}

/// Set-up: genome from `seed`, reads from seed + 1, FASTQ at `path`.
/// Returns the genome (the QUAST reference).
PackedSequence BuildInput(const Workload& w, uint64_t seed,
                          const std::string& path, bool* ok) {
  // The HC-2-sim repeat structure, with families scaled to the genome as
  // sim/datasets.cpp scales them, so repeats stay 3-5% of every genome.
  GenomeConfig genome;
  genome.length = w.genome_bp;
  genome.repeat_families = static_cast<uint32_t>(4 * w.genome_bp / 250000 + 2);
  genome.repeat_length = 300;
  genome.repeat_copies = 5;
  genome.seed = seed;
  PackedSequence reference = GenerateGenome(genome);
  ReadSimConfig sim;
  sim.read_length = 100;
  sim.coverage = w.coverage;
  sim.error_rate = w.error_rate;
  sim.seed = seed + 1;
  const std::vector<Read> reads = SimulateReads(reference, sim);
  *ok = true;
  if (!w.gzip) {
    ExportReadsFastq(reads, path);
  } else {
    const std::string plain = path + ".plain";
    ExportReadsFastq(reads, plain);
    *ok = GzipFile(plain, path);
    fs::remove(plain);
  }
  return reference;
}

/// The options ppa_assemble runs with, parsed by its own parser.
AssembleCliOptions ParseCli(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  AssembleCliOptions opts;
  bool help = false;
  std::string error;
  if (!ParseAssembleCliArgs(static_cast<int>(argv.size()), argv.data(), &opts,
                            &help, &error)) {
    throw std::runtime_error("ppa_assemble rejects its arguments: " + error);
  }
  return opts;
}

// ---- the traced run -------------------------------------------------------

struct LayerSample {
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
};

/// Runs `fn` as one layer: a "bench" trace span, with wall time, process
/// CPU time and peak RSS taken around it.
template <typename Fn>
LayerSample MeasureLayer(const char* span_name, Fn&& fn) {
  ResetPeakRss();
  const double cpu0 = ProcessCpuSeconds();
  Timer timer;
  {
    obs::TraceSpan span(span_name, "bench");
    fn();
  }
  LayerSample s;
  s.wall_s = timer.Seconds();
  s.cpu_s = ProcessCpuSeconds() - cpu0;
  s.peak_rss_mb = PeakRssMb();
  return s;
}

using LayerValues = std::map<std::string, double>;

/// One in-process pass: a drain-only ingest of the input, then the
/// pipeline, call by call, in Assembler::FinishAssembly order (one
/// error-correction round, the CLI default). Writes the contigs to
/// `contigs_path`.
LayerValues TracedPass(const AssembleCliOptions& cli,
                       const std::string& contigs_path) {
  LayerValues v;
  const AssemblerOptions& options = cli.assembler;
  uint64_t ingest_bases = 0;
  const LayerSample ingest = MeasureLayer("ingest", [&] {
    ReadStream stream(OpenFastxFiles(cli.inputs), cli.stream);
    stream.ForEachBatch(options.num_threads, [](ReadBatch&) {});
    ingest_bases = stream.total_bases();
  });
  v["ingest.wall_s"] = ingest.wall_s;
  v["ingest.mbases_per_s"] = ingest_bases / 1e6 / ingest.wall_s;

  PipelineStats stats;
  std::optional<DbgResult> dbg;
  std::vector<uint32_t> ordinals(options.num_workers, 0);
  LabelingResult labels[2];
  MergeResult merges[2];
  LayerSample label_s[2];
  LayerSample merge_s[2];
  BubbleResult bubbles;
  TipResult tips;

  Timer outer;
  const LayerSample build = MeasureLayer("dbg_construction", [&] {
    ReadStream stream(OpenFastxFiles(cli.inputs), cli.stream);
    dbg.emplace(BuildDbg(stream, options, &stats));
  });
  AssemblyGraph& graph = dbg->graph;
  v["dbg_phase2.kmer_vertices"] = static_cast<double>(graph.live_size());
  label_s[0] = MeasureLayer("contig_labeling", [&] {
    labels[0] = LabelContigs(graph, options, cli.labeling, &stats);
  });
  merge_s[0] = MeasureLayer("contig_merging", [&] {
    merges[0] = MergeContigs(graph, labels[0], options, &ordinals, &stats);
  });
  const LayerSample bubble_s = MeasureLayer("bubble_filtering", [&] {
    bubbles = FilterBubbles(graph, options, &stats);
  });
  const LayerSample tip_s = MeasureLayer(
      "tip_removal", [&] { tips = RemoveTips(graph, options, &stats); });
  label_s[1] = MeasureLayer("contig_labeling", [&] {
    labels[1] = LabelContigs(graph, options, cli.labeling, &stats);
  });
  merge_s[1] = MeasureLayer("contig_merging", [&] {
    merges[1] = MergeContigs(graph, labels[1], options, &ordinals, &stats);
  });
  const LayerSample output_s = MeasureLayer("output", [&] {
    WriteContigsFasta(contigs_path, CollectContigs(graph));
  });
  const double outer_s = outer.Seconds();

  const KmerCountStats& c = dbg->count_stats;
  v["counting.pass1_s"] = c.pass1_seconds;
  v["counting.pass2_s"] = c.pass2_seconds;
  v["counting.windows"] = c.total_windows;
  v["counting.distinct_mers"] = c.distinct_mers;
  v["counting.surviving_mers"] = c.surviving_mers;
  v["counting.pass1_bytes"] = c.shuffled_bytes;
  v["counting.queue_spin_parks"] = c.queue_spin_parks;
  v["counting.peak_queued_bytes"] = c.peak_queued_bytes;
  v["dbg_construction.wall_s"] = build.wall_s;
  v["dbg_construction.cpu_s"] = build.cpu_s;
  v["dbg_construction.peak_rss_mb"] = build.peak_rss_mb;
  const RunStats phase2 = stats.Aggregate("dbg-construction-phase2");
  v["dbg_phase2.wall_s"] = phase2.wall_seconds;
  v["dbg_phase2.pairs_shuffled"] = phase2.pairs_shuffled;

  double unattributed = outer_s - build.wall_s - bubble_s.wall_s -
                        tip_s.wall_s - output_s.wall_s;
  for (int r = 0; r < 2; ++r) {
    const LabelingResult& l = labels[r];
    const MergeResult& m = merges[r];
    v["contig_labeling.wall_s"] += label_s[r].wall_s;
    v["contig_labeling.cpu_s"] += label_s[r].cpu_s;
    v["contig_labeling.peak_rss_mb"] =
        std::max(v["contig_labeling.peak_rss_mb"], label_s[r].peak_rss_mb);
    v["contig_labeling.supersteps"] += l.total_supersteps();
    v["contig_labeling.messages"] += l.total_messages();
    v["contig_labeling.message_bytes"] +=
        l.stats.total_bytes() + l.cycle_sv_stats.total_bytes();
    v["contig_merging.wall_s"] += merge_s[r].wall_s;
    v["contig_merging.cpu_s"] += merge_s[r].cpu_s;
    v["contig_merging.pairs_shuffled"] +=
        m.merge_stats.pairs_shuffled + m.link_stats.pairs_shuffled;
    v["contig_merging.nodes_merged"] += m.nodes_merged;
    unattributed -= label_s[r].wall_s + merge_s[r].wall_s;
  }
  v["bubble_filtering.wall_s"] = bubble_s.wall_s;
  v["bubble_filtering.contigs_pruned"] = bubbles.contigs_pruned;
  v["tip_removal.wall_s"] = tip_s.wall_s;
  v["tip_removal.messages"] = tips.stats.total_messages();
  v["tip_removal.vertices_removed"] = tips.vertices_removed;
  v["output.wall_s"] = output_s.wall_s;
  std::error_code ec;
  v["output.bytes"] = static_cast<double>(fs::file_size(contigs_path, ec));
  v["traced.wall_s"] = outer_s;
  v["traced.unattributed_s"] = unattributed;
  return v;
}

// ---- the phases -----------------------------------------------------------

/// One timed set-up build into `path`; the first one keeps the genome as the
/// QUAST reference and its bytes as the ones every later build must match.
void SetupBuild(WorkloadResult* r, const Settings& s, const std::string& path,
                PackedSequence* reference) {
  const Workload& w = *r->workload;
  Timer timer;
  bool ok = false;
  PackedSequence genome = BuildInput(w, s.seed, path, &ok);
  r->setup_s.push_back(timer.Seconds());
  std::string bytes;
  ok = ok && ReadBytes(path, &bytes);
  const std::string build = "set-up build " + std::to_string(r->setup_s.size());
  if (reference != nullptr) {
    r->checks.Expect(ok, build + " writes " + path);
    *reference = std::move(genome);
    r->input_bytes = std::move(bytes);
  } else {
    r->checks.Expect(ok && bytes == r->input_bytes,
                     build + " is byte-identical to build 1");
    fs::remove(path);
  }
}

std::vector<std::string> AssemblerArgv(const WorkloadResult& r,
                                       const Settings& s) {
  std::vector<std::string> argv = {s.assembler};
  argv.insert(argv.end(), r.args.begin(), r.args.end());
  return argv;
}

/// 1. and 2.: the first set-up build, then the warm-up rep, whose contigs
/// are the reference output and pass the QUAST-style check.
void Prepare(WorkloadResult* r, const Settings& s, Launcher* launcher) {
  const Workload& w = *r->workload;
  Checks& checks = r->checks;
  r->dir = s.workdir + "/" + w.name;
  fs::remove_all(r->dir);
  fs::create_directories(r->dir);
  const std::string input = r->dir + "/reads" + (w.gzip ? ".fq.gz" : ".fq");
  r->contigs_path = r->dir + "/contigs.fa";
  PackedSequence reference;
  SetupBuild(r, s, input, &reference);

  r->args = {"--threads", std::to_string(kThreads)};
  r->args.insert(r->args.end(), w.flags.begin(), w.flags.end());
  for (const std::string& a : {std::string("--contigs"), r->contigs_path,
                               std::string("--stats"), r->dir + "/stats.txt",
                               input}) {
    r->args.push_back(a);
  }
  const ProcessRun warm = launcher->Run(AssemblerArgv(*r, s));
  checks.Expect(warm.ok && ReadBytes(r->contigs_path, &r->cli_contigs),
                "warm-up ppa_assemble exits 0 and writes contigs");
  std::vector<std::string> contig_seqs;
  for (Read& read : ParseFasta(r->cli_contigs)) {
    contig_seqs.push_back(std::move(read.bases));
  }
  const QuastReport quast = EvaluateAssembly(contig_seqs, &reference);
  checks.Expect(quast.genome_fraction >= kMinGenomeFractionPct,
                "genome fraction " + std::to_string(quast.genome_fraction) +
                    "% reaches the minimum");
  checks.Expect(quast.misassemblies == 0,
                std::to_string(quast.misassemblies) + " misassemblies == 0");
  r->genome_fraction_pct = quast.genome_fraction;
  r->quality = {
      Metric{"n50_bp", "bp", static_cast<double>(quast.n50), true, "higher"},
      Metric{"misassemblies", "count", static_cast<double>(quast.misassemblies),
             true, "lower"},
  };
}

/// One timed rep: a cold ppa_assemble process.
void TimedRep(WorkloadResult* r, const Settings& s, Launcher* launcher) {
  fs::remove(r->contigs_path);
  const ProcessRun run = launcher->Run(AssemblerArgv(*r, s));
  std::string contigs;
  const bool ok = run.ok && ReadBytes(r->contigs_path, &contigs) &&
                  contigs == r->cli_contigs;
  r->checks.Expect(ok, "rep " + std::to_string(r->wall.size() + 2) +
                           " exits 0 with contigs identical to rep 1");
  if (!ok) return;
  r->wall.push_back(run.wall_s);
  r->cpu.push_back(run.cpu_s);
  r->rss.push_back(run.peak_rss_mb);
}

/// 3. Timed reps, and the remaining set-up builds, for --seconds per
/// workload. With several workloads they take turns, one rep (and one
/// build) each, so that every workload samples the whole window: the host
/// this was defined on drifts by 20-40% over tens of seconds, and
/// workloads run back to back would each see a different part of it.
/// With --trace 1 each workload takes only kMinReps, the base of
/// traced.overhead_ratio.
void MeasureEndToEnd(std::vector<WorkloadResult>* results, const Settings& s,
                     Launcher* launcher) {
  const double budget =
      s.phases == Phases::kLayers ? 0 : s.seconds * results->size();
  Timer timer;
  auto wants_rep = [&](const WorkloadResult& r) {
    return r.checks.failures.empty() &&
           (r.wall.size() < kMinReps || timer.Seconds() < budget);
  };
  auto wants_build = [&](const WorkloadResult& r) {
    double spent = 0;
    for (double t : r.setup_s) spent += t;
    return r.checks.failures.empty() &&
           (r.setup_s.size() < kMinSetupBuilds || spent < s.seconds / 10);
  };
  for (bool more = true; more;) {
    more = false;
    for (WorkloadResult& r : *results) {
      if (wants_build(r)) SetupBuild(&r, s, r.dir + "/rebuild", nullptr);
      if (wants_rep(r)) TimedRep(&r, s, launcher);
      more = more || wants_rep(r) || wants_build(r);
    }
  }
  for (WorkloadResult& r : *results) {
    r.e2e = {
        Timing("assemble_s", "s", r.wall),
        Timing("cpu_s", "s", r.cpu),
        Timing("peak_rss_mb", "MB", r.rss),
        Timing("setup_s", "s", r.setup_s),
        Metric{"genome_fraction_pct", "%", r.genome_fraction_pct, true},
    };
  }
}

/// 4. The traced run: in-process passes at 2 threads, then one at 1 thread.
void MeasureLayers(WorkloadResult* r, const Settings& s) {
  Checks& checks = r->checks;
  const std::string traced_contigs = r->dir + "/traced.fa";
  auto check_contigs = [&](const std::string& what) {
    std::string contigs;
    checks.Expect(ReadBytes(traced_contigs, &contigs) &&
                      contigs == r->cli_contigs,
                  what + " contigs identical to ppa_assemble's");
  };
  obs::StartTrace();
  std::vector<LayerValues> passes;
  AssembleCliOptions cli = ParseCli(r->args);
  // --seconds covers the workload's timed reps and its traced passes.
  double budget = s.seconds;
  for (double t : r->wall) budget -= t;
  Timer traced;
  while (passes.size() < kMinReps || traced.Seconds() < budget) {
    passes.push_back(TracedPass(cli, traced_contigs));
    check_contigs("traced pass " + std::to_string(passes.size()));
  }
  cli.assembler.num_threads = 1;
  const LayerValues single = TracedPass(cli, traced_contigs);
  check_contigs("1-thread traced pass");
  obs::StopTrace();
  std::ofstream trace(s.workdir + "/" + r->workload->name + ".trace.json");
  obs::WriteTraceJson(trace);
  r->traced_passes = passes.size();

  LayerValues med;
  for (const auto& [name, value] : passes[0]) {
    std::vector<double> samples;
    for (const LayerValues& p : passes) samples.push_back(p.at(name));
    med[name] = Median(samples);
  }
  auto speedup = [&](const char* wall_name) {
    return single.at(wall_name) / med.at(wall_name);
  };
  med["counting.speedup_2t"] =
      (single.at("counting.pass1_s") + single.at("counting.pass2_s")) /
      (med.at("counting.pass1_s") + med.at("counting.pass2_s"));
  med["dbg_phase2.speedup_2t"] = speedup("dbg_phase2.wall_s");
  med["contig_labeling.speedup_2t"] = speedup("contig_labeling.wall_s");
  med["contig_merging.speedup_2t"] = speedup("contig_merging.wall_s");
  med["traced.overhead_ratio"] = med.at("traced.wall_s") / Median(r->wall);
  for (const LayerMetric& m : kLayerMetrics) {
    r->layers.push_back(Metric{m.name, m.unit, med.at(m.name), m.exact});
    if (!m.exact) continue;
    bool same = single.at(m.name) == med.at(m.name);
    for (const LayerValues& p : passes) {
      same = same && p.at(m.name) == med.at(m.name);
    }
    checks.Expect(same, std::string(m.name) +
                            " repeats exactly across passes and threads");
  }
}

// ---- output ---------------------------------------------------------------

void WriteMetric(JsonWriter& w, const Metric& m, bool detail) {
  w.Key(m.name);
  w.BeginObject();
  w.Key("value");
  if (m.exact && m.value == std::floor(m.value)) {
    w.Value(static_cast<uint64_t>(m.value));  // every digit of a count
  } else {
    w.Value(m.value);
  }
  w.Key("unit");
  w.Value(m.unit);
  if (detail && m.exact) {
    w.Key("exact");
    w.Value(true);
  }
  if (detail && m.better != nullptr) {
    w.Key("better");
    w.Value(m.better);
  }
  if (detail && m.n > 0) {
    w.Key("n");
    w.Value(static_cast<uint64_t>(m.n));
    w.Key("q1");
    w.Value(m.q1);
    w.Key("q3");
    w.Value(m.q3);
  }
  w.EndObject();
}

const char* PhasesName(Phases p) {
  return p == Phases::kEndToEnd ? "0" : p == Phases::kLayers ? "1" : "both";
}

/// The --out record: provenance and host noise, then per workload its
/// parameters, checks and every metric with its detail.
std::string RecordJson(const Settings& s, const Host& host,
                       const std::vector<WorkloadResult>& results) {
  std::ostringstream body;
  JsonWriter w(body);
  auto field = [&w](const char* key, auto value) {
    w.Key(key);
    w.Value(value);
  };
  w.BeginObject();
  field("schema", "ppa.bench_pipeline.v2");
  field("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  field("seed", s.seed);
  field("seconds", s.seconds);
  field("trace", PhasesName(s.phases));
  field("wall_s", host.wall_s);
  w.Key("host");
  w.BeginObject();
  field("loadavg_before", host.loadavg_before);
  field("loadavg_after", host.loadavg_after);
  field("steal_ticks", host.steal_ticks);
  w.EndObject();
  w.Key("workloads");
  w.BeginObject();
  for (const WorkloadResult& r : results) {
    const Workload& wl = *r.workload;
    w.Key(wl.name);
    w.BeginObject();
    w.Key("params");
    w.BeginObject();
    field("genome_bp", wl.genome_bp);
    field("coverage", wl.coverage);
    field("error_rate", wl.error_rate);
    field("read_length", uint64_t{100});
    field("gzip", wl.gzip);
    w.Key("ppa_assemble_args");
    w.BeginArray();
    for (const std::string& a : r.args) w.Value(a);
    w.EndArray();
    w.EndObject();
    field("reps", uint64_t{r.wall.size()});
    field("setup_builds", uint64_t{r.setup_s.size()});
    field("traced_passes", uint64_t{r.traced_passes});
    const uint64_t failed = r.checks.failures.size();
    field("attempted", r.checks.attempted);
    field("failed", failed);
    field("fail_rate", static_cast<double>(failed) /
                           static_cast<double>(r.checks.attempted));
    w.Key("failures");
    w.BeginArray();
    for (const std::string& f : r.checks.failures) w.Value(f);
    w.EndArray();
    for (const auto& [key, metrics] :
         {std::pair{"e2e", &r.e2e}, std::pair{"quality", &r.quality},
          std::pair{"layers", &r.layers}}) {
      w.Key(key);
      w.BeginObject();
      for (const Metric& m : *metrics) WriteMetric(w, m, true);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  // Splice the shared BENCH_*.json provenance members in after the '{'.
  return "{\n" + JsonProvenanceFields() + body.str().substr(1) + "\n";
}

/// The one-line result: end-to-end metrics with --trace 0, per-layer with
/// --trace 1, both otherwise; prefixed by workload name under "all".
std::string ResultLine(const Settings& s,
                       const std::vector<WorkloadResult>& results) {
  uint64_t attempted = 0, failed = 0;
  for (const WorkloadResult& r : results) {
    attempted += r.checks.attempted;
    failed += r.checks.failures.size();
  }
  std::ostringstream out;
  JsonWriter w(out);
  w.BeginObject();
  w.Key("correct");
  w.Value(failed == 0);
  w.Key("attempted");
  w.Value(attempted);
  w.Key("failed");
  w.Value(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const WorkloadResult& r : results) {
    const std::string prefix =
        results.size() == 1 ? "" : std::string(r.workload->name) + ".";
    for (const std::vector<Metric>* metrics : {&r.e2e, &r.layers}) {
      if (metrics == &r.e2e && s.phases == Phases::kLayers) continue;
      for (Metric m : *metrics) {
        m.name = prefix + m.name;
        WriteMetric(w, m, false);
      }
    }
  }
  w.EndObject();
  w.EndObject();
  return out.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_pipeline: %s\n"
               "usage: bench_pipeline --workload <hc2|hc2-sv|long-clean|"
               "deep-gz|all> --seed S\n"
               "                      [--seconds N] [--trace 0|1] [--out "
               "FILE] [--workdir DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  // Workloads are fixed by name; the child ppa_assemble would inherit these
  // and silently measure a different program.
  for (const char* var :
       {"PPA_DATASET_SCALE", "PPA_BENCH_THREADS", "PPA_FORCE_SCALAR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "bench_pipeline: refusing to run with %s set\n",
                   var);
      return 2;
    }
  }

  Settings s;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      s.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      s.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || s.seconds < 0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      s.phases = value == "0" ? Phases::kEndToEnd : Phases::kLayers;
    } else if (flag == "--out") {
      s.out = value;
    } else if (flag == "--workdir") {
      s.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage("unknown or missing --workload");

  const fs::path bin_dir = fs::read_symlink("/proc/self/exe").parent_path();
  s.assembler = (bin_dir / "ppa_assemble").string();
  if (access(s.assembler.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "bench_pipeline: no ppa_assemble at %s\n",
                 s.assembler.c_str());
    return 1;
  }
  if (s.workdir.empty()) {
    // Relative, so the record names no host path.
    s.workdir = fs::proximate(bin_dir / "pipeline_work").string();
  }
  fs::create_directories(s.workdir);

  std::signal(SIGPIPE, SIG_IGN);  // a dead launcher fails Run, not the bench
  Launcher launcher;
  Host host;
  host.loadavg_before = LoadAvg();
  const uint64_t steal_before = StealTicks();
  Timer run_timer;
  std::vector<WorkloadResult> results(selected.size());
  bool correct = true;
  try {
    for (size_t i = 0; i < selected.size(); ++i) {
      std::fprintf(stderr, "bench_pipeline: %s (seed %llu)\n",
                   selected[i]->name, static_cast<unsigned long long>(s.seed));
      results[i].workload = selected[i];
      Prepare(&results[i], s, &launcher);
    }
    MeasureEndToEnd(&results, s, &launcher);
    for (WorkloadResult& r : results) {
      if (s.phases != Phases::kEndToEnd && r.checks.failures.empty()) {
        MeasureLayers(&r, s);
      }
      fs::remove_all(r.dir);
      correct = correct && r.checks.failures.empty();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 1;
  }
  host.loadavg_after = LoadAvg();
  host.steal_ticks = StealTicks() - steal_before;
  host.wall_s = run_timer.Seconds();

  std::ofstream out(s.out, std::ios::binary);
  out << RecordJson(s, host, results);
  out.close();
  std::printf("%s\n", ResultLine(s, results).c_str());
  if (!out) {
    std::fprintf(stderr, "bench_pipeline: cannot write %s\n", s.out.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ppa::bench

int main(int argc, char** argv) { return ppa::bench::Main(argc, argv); }
