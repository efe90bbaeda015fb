#include "cli/assemble_cli.h"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "core/assembler.h"
#include "io/fasta_writer.h"
#include "io/fastx.h"
#include "net/faultinject.h"
#include "net/wire.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quality/quast.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ppa {

namespace {

/// Parses a decimal integer no larger than `max`.
bool ParseU64(const std::string& s, uint64_t max, uint64_t* out) {
  // strtoull would silently negate "-1" to 2^64-1, so reject any sign.
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0' || v > max) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// QUAST-style evaluation shared by the text and JSON reports. Fills
/// `warning` (instead of printing) when the reference has extra records.
QuastReport EvaluateContigs(const AssembleCliOptions& opts,
                            const std::vector<std::string>& contigs,
                            std::string* warning) {
  PackedSequence reference;
  const PackedSequence* reference_ptr = nullptr;
  if (!opts.reference.empty()) {
    std::vector<Read> ref = ParseFasta(ReadFile(opts.reference));
    if (ref.size() > 1) {
      // The QUAST-style assessor aligns against a single sequence.
      *warning = "warning: reference has " + std::to_string(ref.size()) +
                 " records; metrics use only the first ('" + ref[0].name +
                 "')\n";
    }
    if (!ref.empty()) {
      reference = PackedSequence::FromString(ref[0].bases);
      reference_ptr = &reference;
    }
  }
  return EvaluateAssembly(contigs, reference_ptr, QuastConfig{});
}

void WriteReport(const AssembleCliOptions& opts, std::ostream& out,
                 const obs::SnapshotView& s, const std::string& ref_warning,
                 const QuastReport& quast,
                 const std::vector<obs::TelemetrySnapshot>& workers,
                 double wall_seconds) {
  out << "== ppa_assemble report ==\n";
  out << "inputs:";
  for (const std::string& path : opts.inputs) out << ' ' << path;
  out << '\n';
  out << "reads=" << s.Get("ingest.reads") << " bases=" << s.Get("ingest.bases")
      << " batches=" << s.Get("ingest.batches") << '\n';
  out << "counting: minimizer_len=" << s.Get("counting.minimizer_len")
      << " shards=" << s.Get("counting.shards")
      << " threads=" << s.Get("counting.threads")
      << " windows=" << s.Get("counting.windows")
      << " max_shard_windows=" << s.Get("counting.max_shard_windows")
      << " superkmers=" << s.Get("counting.superkmers")
      << " pass1_bytes=" << s.Get("counting.pass1_bytes")
      << " distinct=" << s.Get("counting.distinct")
      << " surviving=" << s.Get("counting.surviving")
      << " peak_queued_bytes=" << s.Get("counting.peak_queued_bytes")
      << " queue_bound_bytes=" << s.Get("counting.queue_bound_bytes")
      << " queue_spin_parks=" << s.Get("counting.queue_spin_parks") << '\n';
  out << "pipeline: jobs=" << s.Get("pipeline.jobs")
      << " supersteps=" << s.Get("pipeline.supersteps")
      << " messages=" << s.Get("pipeline.messages")
      << " message_bytes=" << s.Get("pipeline.message_bytes")
      << " compute_micros=" << s.Get("pipeline.compute_micros")
      << " delivery_micros=" << s.Get("pipeline.delivery_micros")
      << " wall_seconds=" << wall_seconds << '\n';
  // Pairs that crossed the shuffle, summed over the MapReduce jobs.
  out << "shuffle: pairs_shuffled=" << s.Get("shuffle.pairs_shuffled")
      << '\n';
  // Pipeline-wide spill: the budget, the measured high-water mark of
  // resident chunk bytes, and the volume that moved through the external
  // store across every shuffle job.
  out << "spill: budget_bytes=" << s.Get("spill.budget_bytes")
      << " peak_resident_bytes=" << s.Get("spill.peak_resident_bytes")
      << " spilled_chunks=" << s.Get("spill.spilled_chunks")
      << " spilled_bytes=" << s.Get("spill.spilled_bytes")
      << " spill_files=" << s.Get("spill.spill_files")
      << " readback_bytes=" << s.Get("spill.readback_bytes") << '\n';
  // Distributed execution (all zero for in-process runs). Byte totals
  // depend on chunk boundaries, so equivalence comparisons mask (or drop)
  // this line, like the queue/spill byte fields.
  out << "net: workers=" << s.Get("net.workers")
      << " chunks=" << s.Get("net.chunks")
      << " sent_bytes=" << s.Get("net.sent_bytes")
      << " received_bytes=" << s.Get("net.received_bytes") << '\n';
  // Fault-tolerance outcome: what the run survived (all zero on a healthy
  // fleet). degraded_local=1 means every worker died and the unsealed
  // shards were rebuilt from the coordinator's chunk journal.
  out << "recovery: worker_failures=" << s.Get("net.worker_failures")
      << " shards_reassigned=" << s.Get("net.shards_reassigned")
      << " chunks_replayed=" << s.Get("net.chunks_replayed")
      << " retries=" << s.Get("net.retries")
      << " degraded_local=" << s.Get("net.degraded") << '\n';
  out << "dbg: kmer_vertices=" << s.Get("dbg.kmer_vertices") << '\n';
  // List ranking's cycle leftovers, labeled by the S-V fallback.
  out << "labeling: cycle_vertices=" << s.Get("labeling.cycle_vertices")
      << '\n';
  // Error correction (operations 4 and 5).
  out << "error_correction: bubble_contigs_pruned="
      << s.Get("bubble_filtering.contigs_pruned")
      << " tip_vertices_removed=" << s.Get("tip_removal.vertices_removed")
      << '\n';
  // Peak RSS when DBG construction returned and when the run ended, and
  // the count tables' slot bytes. Its own line, because equivalence diffs
  // over counting/dbg/contigs lines must not see it: the table bytes
  // follow the shard count, which follows --threads, and read 0 on a clean
  // fleet run.
  out << "memory: dbg_peak_rss_kb=" << s.Get("dbg.peak_rss_kb")
      << " peak_rss_kb=" << s.Get("run.peak_rss_kb")
      << " count_table_bytes=" << s.Get("counting.table_bytes") << '\n';
  out << ref_warning;
  out << "contigs: count=" << s.Get("contigs.count")
      << " total_length=" << s.Get("contigs.total_length")
      << " n50=" << s.Get("contigs.n50")
      << " largest=" << s.Get("contigs.largest") << '\n';
  out << FormatReport(quast);
  // Per-worker telemetry (distributed runs only). A fresh "worker:" prefix
  // so equivalence diffs over counting/dbg/contigs lines never see these
  // chunk-boundary-dependent numbers.
  for (const obs::TelemetrySnapshot& w : workers) {
    out << "worker: endpoint=" << w.source
        << " connections=" << w.Get("worker.connections")
        << " frames_served=" << w.Get("worker.frames_served")
        << " chunk_bytes=" << w.Get("worker.chunk_bytes")
        << " recv_bytes=" << w.Get("worker.bytes_received")
        << " crc_rejects=" << w.Get("worker.crc_rejects") << '\n';
  }
}

}  // namespace

std::string AssembleCliUsage() {
  return
      "usage: ppa_assemble [options] <reads.{fasta,fastq}[.gz]> [more "
      "inputs...]\n"
      "\n"
      "Runs the six-operation PPA-assembler pipeline on FASTA/FASTQ input,\n"
      "streaming reads through bounded memory, and writes contig FASTA plus\n"
      "a stats report.\n"
      "\n"
      "pipeline options (defaults mirror AssemblerOptions):\n"
      "  -k INT              k-mer size, odd, <= 31 (default 31)\n"
      "  --theta INT         min (k+1)-mer coverage kept (default 2)\n"
      "  --tip-length INT    tip length threshold (default 80)\n"
      "  --bubble-edit INT   bubble edit-distance threshold (default 5)\n"
      "  --workers INT       logical Pregel workers (default 16)\n"
      "  --threads INT       OS threads; 0 = hardware (default 0).\n"
      "                      Counting overlaps scanning, so up to 2x this\n"
      "                      many threads exist (counters sleep unless\n"
      "                      scanners outrun them)\n"
      "  --labeling lr|sv    contig labeling method (default lr)\n"
      "\n"
      "counting options:\n"
      "  --shards INT        counting shards; 0 = auto\n"
      "\n"
      "memory budget & spilling:\n"
      "  --memory-budget-bytes INT\n"
      "                      pipeline-wide bound on resident chunk bytes\n"
      "                      (shuffle chunks + the fleet's chunk journal);\n"
      "                      0 = no budget, nothing spills (default). A\n"
      "                      nonzero budget turns spilling on: shuffle\n"
      "                      chunks stay in memory while they fit and go\n"
      "                      to disk otherwise, and the buffered pass-1\n"
      "                      chunk bytes are capped at min(32 MB, budget).\n"
      "                      A budget below one chunk (one shuffle chunk\n"
      "                      payload; ~33 KB for the counting queue) acts\n"
      "                      as one chunk, and then every shuffle chunk\n"
      "                      goes to disk. Identical contigs at every\n"
      "                      budget\n"
      "  --spill-dir PATH    parent directory for the run's spill files\n"
      "                      (default: system temp; removed after the run);\n"
      "                      used only with a budget\n"
      "\n"
      "distributed execution:\n"
      "  --shard-workers INT spawn this many local ppa_shard_worker\n"
      "                      processes (unix sockets in a private temp\n"
      "                      dir) and stream counting pass-2 shards to\n"
      "                      them; shuffle spill stays on local disk. 0 =\n"
      "                      in-process (default). Identical contigs\n"
      "  --worker-endpoints LIST\n"
      "                      comma-separated endpoints of already-running\n"
      "                      workers (unix:/path, host:port, or port);\n"
      "                      wins over --shard-workers\n"
      "  --worker-binary PATH\n"
      "                      worker binary to spawn (default:\n"
      "                      ppa_shard_worker next to this binary)\n"
      "  --net-timeout-ms INT\n"
      "                      connect/read/write timeout; also paces the\n"
      "                      heartbeat that detects dead or hung workers\n"
      "                      (default 30000; 0 = no timeout). Dead workers'\n"
      "                      shards replay to survivors from the chunk\n"
      "                      journal; with no survivors the run degrades\n"
      "                      to local counting — identical contigs either\n"
      "                      way\n"
      "  --fault-plan PLAN   deterministic fault injection forwarded to\n"
      "                      spawned workers, e.g.\n"
      "                      'kill-worker@chunk=3@worker=0' or\n"
      "                      'seed=7,drop-conn'. Grammar in\n"
      "                      src/net/faultinject.h. Testing only\n"
      "\n"
      "output options:\n"
      "  --contigs PATH      contig FASTA (default contigs.fasta)\n"
      "  --stats PATH        stats report (default: stdout)\n"
      "  --reference PATH    reference FASTA for QUAST-style metrics\n"
      "\n"
      "observability:\n"
      "  --report-json PATH  machine-readable run report (schema\n"
      "                      ppa.run_report.v1): every metric of the text\n"
      "                      report plus per-worker wire telemetry\n"
      "  --trace-out PATH    collect phase/span traces and write Chrome\n"
      "                      trace_event JSON (open in ui.perfetto.dev or\n"
      "                      chrome://tracing)\n"
      "  --metrics-listen ENDPOINT\n"
      "                      serve a Prometheus text exposition of the\n"
      "                      run's live metrics (plus per-worker lag\n"
      "                      gauges) at this endpoint (unix:/path,\n"
      "                      host:port, or port) while the run is in\n"
      "                      flight: curl http://host:port/metrics.\n"
      "                      Workers answer GET /metrics on their own\n"
      "                      listen sockets\n"
      "  --log-level LEVEL   debug|info|warn|error|silent (default warn);\n"
      "                      spawned workers log at the same level\n"
      "  --help              this text\n";
}

bool ParseAssembleCliArgs(int argc, const char* const* argv,
                          AssembleCliOptions* opts, bool* help,
                          std::string* error) {
  *help = false;
  auto need_value = [&](int i, const std::string& flag) {
    if (i + 1 < argc) return true;
    *error = flag + " requires a value";
    return false;
  };
  // Every integer flag reads through here: a value its field cannot hold
  // is a usage error naming the field's range, never a silent narrowing.
  auto int_flag = [&](int* i, const std::string& flag, auto* field) {
    using Field = std::remove_pointer_t<decltype(field)>;
    const uint64_t max = std::numeric_limits<Field>::max();
    if (!need_value(*i, flag)) return false;
    const std::string value = argv[++*i];
    uint64_t v = 0;
    if (!ParseU64(value, max, &v)) {
      *error = flag + ": expected an integer in [0, " + std::to_string(max) +
               "], got '" + value + "'";
      return false;
    }
    *field = static_cast<Field>(v);
    return true;
  };

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return true;
    } else if (arg == "-k" || arg == "--k") {
      if (!int_flag(&i, arg, &opts->assembler.k)) return false;
    } else if (arg == "--theta") {
      if (!int_flag(&i, arg, &opts->assembler.coverage_threshold)) return false;
    } else if (arg == "--tip-length") {
      if (!int_flag(&i, arg, &opts->assembler.tip_length_threshold)) {
        return false;
      }
    } else if (arg == "--bubble-edit") {
      if (!int_flag(&i, arg, &opts->assembler.bubble_edit_distance)) {
        return false;
      }
    } else if (arg == "--workers") {
      if (!int_flag(&i, arg, &opts->assembler.num_workers)) return false;
    } else if (arg == "--threads") {
      if (!int_flag(&i, arg, &opts->assembler.num_threads)) return false;
    } else if (arg == "--labeling") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      if (value == "lr") {
        opts->labeling = LabelingMethod::kListRanking;
      } else if (value == "sv") {
        opts->labeling = LabelingMethod::kSimplifiedSv;
      } else {
        *error = "--labeling: expected 'lr' or 'sv', got '" + value + "'";
        return false;
      }
    } else if (arg == "--shards") {
      if (!int_flag(&i, arg, &opts->assembler.kmer_shards)) return false;
    } else if (arg == "--memory-budget-bytes") {
      if (!int_flag(&i, arg, &opts->assembler.memory_budget_bytes)) {
        return false;
      }
    } else if (arg == "--spill-dir") {
      if (!need_value(i, arg)) return false;
      opts->assembler.spill_dir = argv[++i];
    } else if (arg == "--shard-workers") {
      if (!int_flag(&i, arg, &opts->assembler.shard_workers)) return false;
    } else if (arg == "--worker-endpoints") {
      if (!need_value(i, arg)) return false;
      opts->assembler.worker_endpoints = argv[++i];
    } else if (arg == "--worker-binary") {
      if (!need_value(i, arg)) return false;
      opts->assembler.worker_binary = argv[++i];
    } else if (arg == "--net-timeout-ms") {
      if (!int_flag(&i, arg, &opts->assembler.net_timeout_ms)) return false;
    } else if (arg == "--fault-plan") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      net::FaultPlan plan;
      std::string plan_error;
      if (!net::FaultPlan::Parse(value, &plan, &plan_error)) {
        *error = "--fault-plan: " + plan_error;
        return false;
      }
      opts->assembler.fault_plan = value;
    } else if (arg == "--contigs") {
      if (!need_value(i, arg)) return false;
      opts->contigs_out = argv[++i];
    } else if (arg == "--stats") {
      if (!need_value(i, arg)) return false;
      opts->stats_out = argv[++i];
    } else if (arg == "--reference") {
      if (!need_value(i, arg)) return false;
      opts->reference = argv[++i];
    } else if (arg == "--report-json") {
      if (!need_value(i, arg)) return false;
      opts->report_json = argv[++i];
    } else if (arg == "--trace-out") {
      if (!need_value(i, arg)) return false;
      opts->trace_out = argv[++i];
    } else if (arg == "--metrics-listen") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      net::Endpoint endpoint;
      std::string endpoint_error;
      if (!net::ParseEndpoint(value, &endpoint, &endpoint_error)) {
        *error = "--metrics-listen: " + endpoint_error;
        return false;
      }
      opts->metrics_listen = value;
    } else if (arg == "--log-level") {
      if (!need_value(i, arg)) return false;
      const std::string value = argv[++i];
      LogLevel level;
      if (!ParseLogLevel(value, &level)) {
        *error = "--log-level: expected debug|info|warn|error|silent, got '" +
                 value + "'";
        return false;
      }
      opts->log_level = value;
    } else if (!arg.empty() && arg[0] == '-') {
      *error = "unknown flag '" + arg + "' (see --help)";
      return false;
    } else {
      opts->inputs.push_back(arg);
    }
  }
  if (opts->inputs.empty()) {
    *error = "no input files (see --help)";
    return false;
  }
  // Range-check here so bad values are a usage error (exit 2), not a
  // PPA_CHECK abort deep inside the pipeline.
  const int k = opts->assembler.k;
  if (k < 3 || k > 31 || k % 2 == 0) {
    *error = "-k: must be odd and in [3, 31], got " + std::to_string(k);
    return false;
  }
  if (opts->assembler.num_workers < 1) {
    *error = "--workers: must be >= 1";
    return false;
  }
  return true;
}

int RunAssembleCli(const AssembleCliOptions& opts, std::ostream& out,
                   std::ostream& err) {
  // A worker that dies mid-write must surface as a recoverable send error,
  // not kill the coordinator. Wire sends already pass MSG_NOSIGNAL; this
  // covers every other descriptor (a closed stdout pipe included).
  std::signal(SIGPIPE, SIG_IGN);
  for (const std::string& path : opts.inputs) {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.good()) {
      err << "ppa_assemble: cannot open input '" << path << "'\n";
      return 1;
    }
  }
  if (!opts.reference.empty()) {
    std::ifstream probe(opts.reference, std::ios::binary);
    if (!probe.good()) {
      err << "ppa_assemble: cannot open reference '" << opts.reference
          << "'\n";
      return 1;
    }
  }
  if (!opts.log_level.empty()) {
    LogLevel level = LogLevel::kWarning;
    ParseLogLevel(opts.log_level, &level);  // validated at parse time
    SetLogLevel(level);
  }

  // One registry, one publication, one snapshot: the text report and
  // run.json below render from the same SnapshotView, so their totals
  // cannot drift apart.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetValues();
  if (!opts.trace_out.empty()) obs::StartTrace();

  // Live scrape endpoint (--metrics-listen): a background thread serving
  // the global registry — including the per-worker lag gauges — while the
  // run is in flight. Stopped by the guard's destructor on every path.
  obs::MetricsHttpServer metrics_server;
  if (!opts.metrics_listen.empty()) {
    std::string listen_error;
    if (!metrics_server.Start(
            opts.metrics_listen,
            [&registry] { return obs::RenderPrometheus(registry.Snapshot()); },
            &listen_error)) {
      err << "ppa_assemble: --metrics-listen: " << listen_error << '\n';
      return 1;
    }
  }

  Timer timer;
  std::ostringstream report;
  std::ostringstream run_json;
  std::vector<obs::ProcessTrace> worker_traces;
  const bool write_json = !opts.report_json.empty();

  try {
    Assembler assembler(opts.assembler);
    ReadStream stream(OpenFastxFiles(opts.inputs), opts.stream);
    AssemblyResult result = assembler.Assemble(stream, opts.labeling);
    WriteContigsFasta(opts.contigs_out, result.contigs);
    std::string ref_warning;
    const QuastReport quast =
        EvaluateContigs(opts, result.ContigStrings(), &ref_warning);
    const double wall_seconds = timer.Seconds();

    obs::RunReportData data;
    data.reads = stream.total_reads();
    data.bases = stream.total_bases();
    data.batches = stream.total_batches();
    data.counting = &result.count_stats;
    data.pipeline = &result.stats;
    data.spill_budget_bytes = result.spill_budget_bytes;
    data.spill_peak_resident_bytes = result.spill_peak_resident_bytes;
    data.kmer_vertices = result.kmer_vertices;
    data.labeling_cycle_vertices = result.labeling_cycle_vertices;
    data.bubbles_pruned = result.bubbles_pruned;
    data.tips_removed = result.tips_removed;
    data.num_contigs = quast.num_contigs;
    data.contigs_total_length = quast.total_length;
    data.contigs_n50 = quast.n50;
    data.largest_contig = quast.largest_contig;
    data.wall_seconds = wall_seconds;
    data.dbg_peak_rss_kb = result.dbg_peak_rss_kb;
    data.peak_rss_kb = obs::PeakRssKb();
    obs::PublishRunMetrics(data, &registry);
    const obs::SnapshotView snapshot(registry.Snapshot());

    worker_traces = std::move(result.worker_traces);
    WriteReport(opts, report, snapshot, ref_warning, quast,
                result.worker_telemetry, wall_seconds);

    if (write_json) {
      obs::RunReportInfo info;
      info.inputs = opts.inputs;
      info.wall_seconds = wall_seconds;
      info.workers = result.worker_telemetry;
      obs::WriteRunReportJson(run_json, snapshot, info);
    }
  } catch (const std::exception& e) {
    // Spill-store failures (unwritable spill dir, disk full, corrupt
    // readback) surface here as diagnostics, not crashes; the SpillContext
    // guards have already removed their temp directories by now.
    if (!opts.trace_out.empty()) obs::StopTrace();
    err << "ppa_assemble: " << e.what() << '\n';
    return 1;
  }

  if (!opts.trace_out.empty()) {
    obs::StopTrace();
    std::ofstream trace(opts.trace_out, std::ios::binary);
    if (!trace.good()) {
      err << "ppa_assemble: cannot write trace '" << opts.trace_out << "'\n";
      return 1;
    }
    obs::WriteTraceJson(trace, worker_traces);
  }
  if (write_json) {
    std::ofstream json(opts.report_json, std::ios::binary);
    if (!json.good()) {
      err << "ppa_assemble: cannot write report '" << opts.report_json
          << "'\n";
      return 1;
    }
    json << run_json.str();
  }
  if (opts.stats_out.empty()) {
    out << report.str();
  } else {
    WriteFile(opts.stats_out, report.str());
  }
  return 0;
}

}  // namespace ppa
