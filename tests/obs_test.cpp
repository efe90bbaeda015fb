// Tests for obs/: the metrics registry under concurrency (run under TSan
// in CI), telemetry wire round-trips, trace JSON shape, the run-report
// publication, and the strict JSON parser the goldens rely on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/varint.h"

namespace ppa {
namespace {

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("test.counter");
  obs::Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Add(3);
  registry.ResetValues();
  EXPECT_EQ(a->Value(), 0u);
  // Registration survives the reset: same pointer, zeroed value.
  EXPECT_EQ(registry.GetCounter("test.counter"), a);
}

TEST(MetricsRegistryTest, ConcurrentAddsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("race.counter");
  obs::Gauge* peak = registry.GetGauge("race.peak");
  obs::Histogram* histogram = registry.GetHistogram("race.histogram");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        peak->SetMax(t * kPerThread + i);
        histogram->Observe(i);
        // Concurrent find-or-create of the same name must be safe too.
        registry.GetCounter("race.latecomer")->Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(peak->Value(), (kThreads - 1) * kPerThread + kPerThread - 1);
  EXPECT_EQ(histogram->Count(), kThreads * kPerThread);
  EXPECT_EQ(registry.GetCounter("race.latecomer")->Value(),
            kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotExpandsHistograms) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.counter")->Add(7);
  registry.GetGauge("b.gauge")->Set(11);
  obs::Histogram* h = registry.GetHistogram("c.histogram");
  for (uint64_t v : {1, 2, 4, 1000}) h->Observe(v);
  const std::vector<obs::MetricValue> snapshot = registry.Snapshot();
  const obs::SnapshotView view(snapshot);
  EXPECT_EQ(view.Get("a.counter"), 7u);
  EXPECT_EQ(view.Get("b.gauge"), 11u);
  EXPECT_EQ(view.Get("c.histogram.count"), 4u);
  EXPECT_EQ(view.Get("c.histogram.sum"), 1007u);
  EXPECT_GE(view.Get("c.histogram.p99"), 1000u);
  EXPECT_EQ(view.Get("never.registered"), 0u);
  // Snapshots are ordered by registered metric name; the histogram's
  // derived entries (.count/.sum/.p50/.p99) stay adjacent under its name.
  std::vector<std::string> names;
  for (const obs::MetricValue& v : snapshot) names.push_back(v.name);
  const std::vector<std::string> expected = {
      "a.counter",         "b.gauge",           "c.histogram.count",
      "c.histogram.sum",   "c.histogram.p50",   "c.histogram.p99"};
  EXPECT_EQ(names, expected);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  obs::Histogram h;
  h.Observe(0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(900);  // bucket [512, 1024)
  EXPECT_EQ(h.Quantile(0.5), 1023u);
  EXPECT_EQ(h.Quantile(0.99), 1023u);
  h.Observe(1u << 20);
  EXPECT_EQ(h.Quantile(0.5), 1023u);  // median unchanged by one outlier
}

TEST(TelemetryTest, EncodeDecodeRoundTrip) {
  std::vector<obs::MetricValue> metrics;
  metrics.push_back({"worker.frames_served", obs::MetricKind::kCounter, 42});
  metrics.push_back({"worker.chunk_bytes", obs::MetricKind::kCounter,
                     (1ULL << 40) + 17});
  metrics.push_back({"mem.resident_bytes", obs::MetricKind::kGauge, 0});
  std::vector<uint8_t> wire;
  obs::EncodeTelemetry(metrics, &wire);
  std::vector<obs::MetricValue> decoded;
  std::string error;
  ASSERT_TRUE(obs::DecodeTelemetry(wire.data(), wire.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(decoded[i].name, metrics[i].name);
    EXPECT_EQ(decoded[i].kind, metrics[i].kind);
    EXPECT_EQ(decoded[i].value, metrics[i].value);
  }
}

TEST(TelemetryTest, DecodeRejectsTruncation) {
  std::vector<obs::MetricValue> metrics;
  metrics.push_back({"worker.connections", obs::MetricKind::kCounter, 3});
  std::vector<uint8_t> wire;
  obs::EncodeTelemetry(metrics, &wire);
  std::string error;
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<obs::MetricValue> decoded;
    error.clear();
    EXPECT_FALSE(
        obs::DecodeTelemetry(wire.data(), cut, &decoded, &error))
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(TelemetryTest, SnapshotGetFallsBack) {
  obs::TelemetrySnapshot snap;
  snap.metrics.push_back({"worker.connections", obs::MetricKind::kCounter, 2});
  EXPECT_EQ(snap.Get("worker.connections"), 2u);
  EXPECT_EQ(snap.Get("worker.frames_served"), 0u);
  EXPECT_EQ(snap.Get("worker.frames_served", 99), 99u);
}

TEST(TraceTest, SpansAppearInJson) {
  obs::StartTrace();
  obs::SetTraceThreadName("obs-test");
  {
    PPA_TRACE_SPAN("outer_span", "test");
    PPA_TRACE_SPAN_V("inner_span", "test", 1234);
  }
  std::thread other([] {
    PPA_TRACE_SPAN("other_thread_span", "test");
  });
  other.join();
  obs::StopTrace();
  std::ostringstream out;
  obs::WriteTraceJson(out);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_outer = false, saw_inner = false, saw_other = false;
  uint64_t inner_tid = 0, other_tid = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "outer_span") saw_outer = true;
    if (name->str == "inner_span") {
      saw_inner = true;
      inner_tid = e.GetU64("tid");
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetU64("v"), 1234u);
    }
    if (name->str == "other_thread_span") {
      saw_other = true;
      other_tid = e.GetU64("tid");
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_other);
  // Distinct threads get distinct tracks.
  EXPECT_NE(inner_tid, other_tid);
}

TEST(TraceSnapshotTest, RoundTripsAndAppliesTheShift) {
  obs::StartTrace();
  obs::SetTraceThreadName("snap-test");
  {
    PPA_TRACE_SPAN("snap_outer", "test");
    PPA_TRACE_SPAN_V("snap_inner", "test", 77);
  }
  obs::StopTrace();
  std::vector<uint8_t> plain, shifted, negative;
  obs::EncodeTraceSnapshot(&plain);
  obs::EncodeTraceSnapshot(&shifted, 123456);
  obs::EncodeTraceSnapshot(&negative, -(1ll << 40));
  obs::ProcessTrace a, b, c;
  std::string error;
  ASSERT_TRUE(obs::DecodeTraceSnapshot(plain.data(), plain.size(), &a, &error))
      << error;
  ASSERT_TRUE(
      obs::DecodeTraceSnapshot(shifted.data(), shifted.size(), &b, &error))
      << error;
  ASSERT_TRUE(
      obs::DecodeTraceSnapshot(negative.data(), negative.size(), &c, &error))
      << error;
  ASSERT_EQ(a.events.size(), 2u);
  ASSERT_EQ(b.events.size(), 2u);
  bool saw_inner = false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].name, b.events[i].name);
    // The shift lands on every start timestamp, nothing else.
    EXPECT_EQ(b.events[i].start_us - a.events[i].start_us, 123456);
    EXPECT_EQ(b.events[i].dur_us, a.events[i].dur_us);
    if (a.events[i].name == "snap_inner") {
      saw_inner = true;
      EXPECT_EQ(a.events[i].category, "test");
      ASSERT_TRUE(a.events[i].has_arg);
      EXPECT_EQ(a.events[i].arg, 77u);
    }
  }
  EXPECT_TRUE(saw_inner);
  // A large negative shift (a worker clock far behind) survives zigzag.
  EXPECT_LT(c.events[0].start_us, 0);
  bool saw_thread_name = false;
  for (const auto& entry : a.thread_names) {
    if (entry.second == "snap-test") saw_thread_name = true;
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_EQ(a.dropped, 0u);
}

TEST(TraceSnapshotTest, DecodeRejectsTruncationAndTrailingBytes) {
  obs::StartTrace();
  { PPA_TRACE_SPAN_V("trunc_span", "test", 5); }
  obs::StopTrace();
  std::vector<uint8_t> wire;
  obs::EncodeTraceSnapshot(&wire);
  std::string error;
  // Every proper prefix must fail cleanly — these bytes come off a socket.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    obs::ProcessTrace decoded;
    error.clear();
    EXPECT_FALSE(obs::DecodeTraceSnapshot(wire.data(), cut, &decoded, &error))
        << "prefix of " << cut << " bytes decoded";
  }
  obs::ProcessTrace decoded;
  ASSERT_TRUE(
      obs::DecodeTraceSnapshot(wire.data(), wire.size(), &decoded, &error))
      << error;
  wire.push_back(0);
  EXPECT_FALSE(
      obs::DecodeTraceSnapshot(wire.data(), wire.size(), &decoded, &error));
}

TEST(TraceSnapshotTest, DecodeRejectsBadHasArgByte) {
  // Hand-built snapshot: no thread names, one event, has_arg out of range.
  std::vector<uint8_t> wire;
  PutVarint64(&wire, 0);  // thread-name count
  PutVarint64(&wire, 1);  // event count
  PutVarint64(&wire, 1);
  wire.push_back('x');  // name
  PutVarint64(&wire, 1);
  wire.push_back('t');  // category
  PutVarint64(&wire, 3);                // tid
  PutVarint64(&wire, ZigZagEncode(10));  // start_us
  PutVarint64(&wire, 2);                // dur_us
  const size_t has_arg_at = wire.size();
  wire.push_back(2);      // has_arg must be 0 or 1
  PutVarint64(&wire, 0);  // dropped
  obs::ProcessTrace decoded;
  std::string error;
  EXPECT_FALSE(
      obs::DecodeTraceSnapshot(wire.data(), wire.size(), &decoded, &error));
  wire[has_arg_at] = 0;
  ASSERT_TRUE(
      obs::DecodeTraceSnapshot(wire.data(), wire.size(), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.events.size(), 1u);
  EXPECT_EQ(decoded.events[0].name, "x");
  EXPECT_EQ(decoded.events[0].start_us, 10);
  EXPECT_FALSE(decoded.events[0].has_arg);
}

TEST(TraceJsonTest, MergedTimelineCorrectsOffsetsOntoWorkerPids) {
  obs::StartTrace();  // fresh, empty local session: only remote tracks
  obs::StopTrace();
  obs::ProcessTrace worker;
  worker.label = "unix:/tmp/w0.sock";
  worker.clock_offset_us = 1000;
  worker.thread_names.emplace_back(7, "srv");
  obs::RemoteTraceEvent span;
  span.name = "remote_span";
  span.category = "worker";
  span.tid = 7;
  span.start_us = 1500;
  span.dur_us = 10;
  span.arg = 64;
  span.has_arg = true;
  worker.events.push_back(span);
  obs::RemoteTraceEvent early;
  early.name = "early_span";
  early.category = "worker";
  early.tid = 7;
  early.start_us = 200;  // corrected to -800: clamps to 0, never negative
  early.dur_us = 5;
  worker.events.push_back(early);
  worker.dropped = 3;

  std::ostringstream out;
  obs::WriteTraceJson(out, {worker});
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.GetU64("ppaDroppedEvents"), 3u);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_span = false, saw_early = false, saw_process_name = false,
       saw_thread_name = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "remote_span") {
      saw_span = true;
      EXPECT_EQ(e.GetU64("pid"), 2u);  // first remote process: pid 2
      EXPECT_EQ(e.GetU64("tid"), 7u);
      EXPECT_EQ(e.GetU64("ts"), 500u);  // 1500 - offset 1000
      EXPECT_EQ(e.GetU64("dur"), 10u);
      EXPECT_EQ(e.Find("args")->GetU64("v"), 64u);
    }
    if (name->str == "early_span") {
      saw_early = true;
      EXPECT_EQ(e.GetU64("ts"), 0u);
    }
    if (name->str == "process_name" && e.GetU64("pid") == 2u) {
      saw_process_name = true;
      EXPECT_EQ(e.Find("args")->Find("name")->str,
                "worker unix:/tmp/w0.sock");
    }
    if (name->str == "thread_name" && e.GetU64("pid") == 2u &&
        e.GetU64("tid") == 7u) {
      saw_thread_name = true;
      EXPECT_EQ(e.Find("args")->Find("name")->str, "srv");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_early);
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
}

TEST(PrometheusTest, RendersTypesMangledNamesAndWorkerLabels) {
  // Name-sorted, as MetricsRegistry::Snapshot delivers: the per-worker
  // samples sit adjacent, so their shared family gets one TYPE line.
  std::vector<obs::MetricValue> snapshot;
  snapshot.push_back({"mem.resident_bytes", obs::MetricKind::kGauge, 9});
  snapshot.push_back({"net.chunks", obs::MetricKind::kCounter, 5});
  snapshot.push_back({"net.worker.unix:/tmp/w0.sock.frames_served",
                      obs::MetricKind::kCounter, 7});
  snapshot.push_back({"net.worker.unix:/tmp/w1.sock.frames_served",
                      obs::MetricKind::kCounter, 8});
  snapshot.push_back({"net.workers", obs::MetricKind::kGauge, 2});
  const std::string expected =
      "# TYPE ppa_mem_resident_bytes gauge\n"
      "ppa_mem_resident_bytes 9\n"
      "# TYPE ppa_net_chunks counter\n"
      "ppa_net_chunks 5\n"
      "# TYPE ppa_net_worker_frames_served counter\n"
      "ppa_net_worker_frames_served{worker=\"unix:/tmp/w0.sock\"} 7\n"
      "ppa_net_worker_frames_served{worker=\"unix:/tmp/w1.sock\"} 8\n"
      "# TYPE ppa_net_workers gauge\n"
      "ppa_net_workers 2\n";
  EXPECT_EQ(obs::RenderPrometheus(snapshot), expected);
}

TEST(PrometheusTest, EscapesLabelValuesAndLeavesShortNamesAlone) {
  std::vector<obs::MetricValue> snapshot;
  // A quote or backslash in an endpoint must not break the exposition.
  snapshot.push_back(
      {"net.worker.host\"x\\y.unacked_bytes", obs::MetricKind::kGauge, 1});
  // "net.workers" has no endpoint segment: no label transform.
  snapshot.push_back({"net.workers", obs::MetricKind::kGauge, 3});
  const std::string out = obs::RenderPrometheus(snapshot);
  EXPECT_NE(
      out.find(
          "ppa_net_worker_unacked_bytes{worker=\"host\\\"x\\\\y\"} 1\n"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("ppa_net_workers 3\n"), std::string::npos) << out;
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  // Tracing off (the default): spans must be inert, and a later trace must
  // not see them.
  { PPA_TRACE_SPAN("ghost_span", "test"); }
  obs::StartTrace();
  obs::StopTrace();
  std::ostringstream out;
  obs::WriteTraceJson(out);
  EXPECT_EQ(out.str().find("ghost_span"), std::string::npos);
}

TEST(RunReportTest, JsonCarriesSnapshotAndWorkers) {
  obs::MetricsRegistry registry;
  registry.GetGauge("dbg.kmer_vertices")->Set(123);
  registry.GetCounter("io.reads")->Add(456);
  const obs::SnapshotView snapshot(registry.Snapshot());

  obs::RunReportInfo info;
  info.inputs = {"a.fastq", "b.fastq"};
  info.wall_seconds = 1.5;
  obs::TelemetrySnapshot worker;
  worker.source = "unix:/tmp/w0.sock";
  worker.metrics.push_back(
      {"worker.frames_served", obs::MetricKind::kCounter, 9});
  info.workers.push_back(worker);

  std::ostringstream out;
  obs::WriteRunReportJson(out, snapshot, info);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->str, "ppa.run_report.v1");
  EXPECT_EQ(doc.Find("inputs")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.Find("wall_seconds")->number, 1.5);
  // The whole top level: the run facts of RunReportInfo, the snapshot and
  // the workers, and nothing else.
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"inputs", "metrics", "schema",
                                            "wall_seconds", "workers"}));
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetU64("dbg.kmer_vertices"), 123u);
  EXPECT_EQ(metrics->GetU64("io.reads"), 456u);
  const JsonValue* workers = doc.Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), 1u);
  EXPECT_EQ(workers->array[0].Find("endpoint")->str, "unix:/tmp/w0.sock");
  EXPECT_EQ(workers->array[0].Find("metrics")->GetU64("worker.frames_served"),
            9u);
}

TEST(JsonParserTest, AcceptsTheWriterAndRejectsGarbage) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(R"({"a": [1, 2.5, "x\n", true, null], "b": {}})",
                        &doc, &error))
      << error;
  EXPECT_EQ(doc.Find("a")->array.size(), 5u);
  EXPECT_EQ(doc.Find("a")->array[2].str, "x\n");

  for (const char* bad : {"{", "[1,]", "{\"a\":}", "{} trailing", "{'a':1}",
                          "{\"a\":1,}", "nul", ""}) {
    JsonValue v;
    error.clear();
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad;
  }
  // Exact 64-bit integers survive via the raw token.
  EXPECT_TRUE(ParseJson("{\"big\": 18446744073709551615}", &doc, &error));
  EXPECT_EQ(doc.GetU64("big"), UINT64_MAX);
}

}  // namespace
}  // namespace ppa
