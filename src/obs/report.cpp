#include "obs/report.h"

#include <sys/resource.h>

#include <algorithm>

#include "dbg/kmer_counter.h"
#include "pregel/stats.h"
#include "util/cpu.h"
#include "util/json.h"

namespace ppa {
namespace obs {

namespace {

uint64_t Micros(double seconds) {
  return seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e6);
}

void Set(MetricsRegistry* r, const std::string& name, uint64_t value) {
  r->GetGauge(name)->Set(value);
}

}  // namespace

void PublishRunMetrics(const RunReportData& data, MetricsRegistry* r) {
  Set(r, "ingest.reads", data.reads);
  Set(r, "ingest.bases", data.bases);
  Set(r, "ingest.batches", data.batches);

  // What the runtime SIMD dispatch picked (util/cpu.h) — throughput
  // metrics from two hosts are not comparable without it. The level gauge
  // holds the SimdLevel enum value; SimdLevelName gives the spelling.
  Set(r, "pipeline.simd.level",
      static_cast<uint64_t>(ActiveSimdLevel()));
  Set(r, "pipeline.simd.force_scalar", SimdForcedScalar() ? 1 : 0);

  if (data.counting != nullptr) {
    const KmerCountStats& c = *data.counting;
    Set(r, "counting.queue_spin_parks", c.queue_spin_parks);
    Set(r, "counting.minimizer_len", c.minimizer_len);
    Set(r, "counting.shards", c.shards);
    Set(r, "counting.threads", c.threads);
    Set(r, "counting.windows", c.total_windows);
    // Windows of the fullest shard: max_shard_windows * shards / windows
    // is the pass-2 load skew.
    uint64_t max_shard_windows = 0;
    for (uint64_t w : c.shard_windows) {
      max_shard_windows = std::max(max_shard_windows, w);
    }
    Set(r, "counting.max_shard_windows", max_shard_windows);
    Set(r, "counting.superkmers", c.superkmers);
    Set(r, "counting.pass1_bytes", c.shuffled_bytes);
    Set(r, "counting.messages", c.shuffled_messages);
    Set(r, "counting.distinct", c.distinct_mers);
    Set(r, "counting.surviving", c.surviving_mers);
    Set(r, "counting.peak_queued_bytes", c.peak_queued_bytes);
    Set(r, "counting.queue_bound_bytes", c.queue_bound_bytes);
    Set(r, "counting.table_bytes", c.table_bytes);
    Set(r, "counting.pass1_micros", Micros(c.pass1_seconds));
    Set(r, "counting.pass2_micros", Micros(c.pass2_seconds));
    Set(r, "net.workers", c.distributed_workers);
    Set(r, "net.chunks", c.net_chunks);
    Set(r, "net.sent_bytes", c.net_sent_bytes);
    Set(r, "net.received_bytes", c.net_received_bytes);
    Set(r, "net.worker_failures", c.worker_failures);
    Set(r, "net.shards_reassigned", c.shards_reassigned);
    Set(r, "net.chunks_replayed", c.chunks_replayed);
    Set(r, "net.journal_bytes", c.net_journal_bytes);
    Set(r, "net.journal_spilled_bytes", c.net_journal_spilled_bytes);
    Set(r, "net.degraded", c.net_degraded ? 1 : 0);
  }

  if (data.pipeline != nullptr) {
    const PipelineStats& p = *data.pipeline;
    Set(r, "pipeline.jobs", p.jobs.size());
    Set(r, "pipeline.supersteps", p.total_supersteps());
    Set(r, "pipeline.messages", p.total_messages());
    Set(r, "pipeline.message_bytes", p.total_bytes());
    Set(r, "pipeline.wall_micros", Micros(p.total_wall_seconds()));
    Set(r, "pipeline.compute_micros", Micros(p.total_compute_seconds()));
    Set(r, "pipeline.delivery_micros", Micros(p.total_delivery_seconds()));
    Set(r, "shuffle.pairs_shuffled", p.total_pairs_shuffled());
    const SpillStats spill = p.total_spill();
    Set(r, "spill.spilled_chunks", spill.spilled_chunks);
    Set(r, "spill.spilled_bytes", spill.spilled_bytes);
    Set(r, "spill.spill_files", spill.spill_files);
    Set(r, "spill.readback_bytes", spill.readback_bytes);
  }

  Set(r, "spill.budget_bytes", data.spill_budget_bytes);
  Set(r, "spill.peak_resident_bytes", data.spill_peak_resident_bytes);
  Set(r, "dbg.kmer_vertices", data.kmer_vertices);
  Set(r, "dbg.peak_rss_kb", data.dbg_peak_rss_kb);
  Set(r, "labeling.cycle_vertices", data.labeling_cycle_vertices);
  Set(r, "bubble_filtering.contigs_pruned", data.bubbles_pruned);
  Set(r, "tip_removal.vertices_removed", data.tips_removed);
  Set(r, "contigs.count", data.num_contigs);
  Set(r, "contigs.total_length", data.contigs_total_length);
  Set(r, "contigs.n50", data.contigs_n50);
  Set(r, "contigs.largest", data.largest_contig);
  Set(r, "run.wall_micros", Micros(data.wall_seconds));
  Set(r, "run.peak_rss_kb", data.peak_rss_kb);
}

uint64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

SnapshotView::SnapshotView(std::vector<MetricValue> samples)
    : samples_(std::move(samples)) {
  for (const MetricValue& m : samples_) by_name_[m.name] = m.value;
}

uint64_t SnapshotView::Get(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second;
}

void WriteRunReportJson(std::ostream& out, const SnapshotView& snapshot,
                        const RunReportInfo& info) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("schema");
  w.Value("ppa.run_report.v1");
  w.Key("inputs");
  w.BeginArray();
  for (const std::string& path : info.inputs) w.Value(path);
  w.EndArray();
  w.Key("wall_seconds");
  w.Value(info.wall_seconds);

  w.Key("metrics");
  w.BeginObject();
  for (const MetricValue& m : snapshot.samples()) {
    w.Key(m.name);
    w.Value(m.value);
  }
  w.EndObject();

  w.Key("workers");
  w.BeginArray();
  for (const TelemetrySnapshot& worker : info.workers) {
    w.BeginObject();
    w.Key("endpoint");
    w.Value(worker.source);
    w.Key("metrics");
    w.BeginObject();
    for (const MetricValue& m : worker.metrics) {
      w.Key(m.name);
      w.Value(m.value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << '\n';
}

}  // namespace obs
}  // namespace ppa
