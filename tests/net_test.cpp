// Tests for the distributed shard-worker subsystem (net/): wire framing
// strictness (every mutated byte of a valid frame stream is rejected with a
// diagnostic, never misread), endpoint parsing, the in-process worker
// server, and the headline property — distributed counting over a fleet of
// workers is bit-identical to the in-process counter across a
// k x shards x workers grid, including under injected faults: a worker
// dying mid-stream is recovered by reassigning its shard leases and
// replaying the chunk journal, and a fleet that dies entirely degrades to
// local counting — in every case with bit-identical output, never a hang.
#include "net/wire.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbg/kmer_counter.h"
#include "net/coordinator.h"
#include "net/faultinject.h"
#include "net/journal.h"
#include "net/retry.h"
#include "net/worker.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/json.h"
#include "util/timer.h"
#include "util/varint.h"

namespace ppa {
namespace {

using net::Endpoint;
using net::Frame;
using net::FrameConn;
using net::MsgType;
using net::ShardWorkerServer;
using net::WorkerOptions;

using Pair = std::pair<uint64_t, uint32_t>;

// ---------------------------------------------------------------------------
// Endpoint parsing.
// ---------------------------------------------------------------------------

TEST(EndpointTest, ParsesUnixHostPortAndBarePort) {
  Endpoint e;
  std::string error;
  ASSERT_TRUE(net::ParseEndpoint("unix:/tmp/w.sock", &e, &error)) << error;
  EXPECT_TRUE(e.is_unix);
  EXPECT_EQ(e.path, "/tmp/w.sock");

  ASSERT_TRUE(net::ParseEndpoint("example.org:9000", &e, &error)) << error;
  EXPECT_FALSE(e.is_unix);
  EXPECT_EQ(e.host, "example.org");
  EXPECT_EQ(e.port, 9000);

  ASSERT_TRUE(net::ParseEndpoint("127.0.0.1:80", &e, &error)) << error;
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 80);

  ASSERT_TRUE(net::ParseEndpoint("4567", &e, &error)) << error;
  EXPECT_FALSE(e.is_unix);
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 4567);
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "unix:", "host:", ":123", "host:99999",
                          "host:0x50", "not a port", "a:b:c:d:"}) {
    Endpoint e;
    std::string error;
    EXPECT_FALSE(net::ParseEndpoint(bad, &e, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(EndpointTest, SplitDropsEmptyItems) {
  std::vector<std::string> parts =
      net::SplitEndpoints(",unix:/a.sock,, 9000 ,");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "unix:/a.sock");
  EXPECT_EQ(parts[1], "9000");
}

// ---------------------------------------------------------------------------
// Frame transport over a socketpair.
// ---------------------------------------------------------------------------

struct ConnPair {
  std::unique_ptr<FrameConn> a;
  std::unique_ptr<FrameConn> b;
  ConnPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<FrameConn>(fds[0]);
    b = std::make_unique<FrameConn>(fds[1]);
  }
};

TEST(FrameConnTest, RoundTripsFramesAndCleanEof) {
  ConnPair pair;
  std::string error;
  ASSERT_TRUE(pair.a->SendMagic(&error)) << error;
  ASSERT_TRUE(pair.b->ExpectMagic(&error)) << error;

  std::vector<std::vector<uint8_t>> bodies;
  bodies.push_back({});                          // empty body (type only)
  bodies.push_back({0x42});
  bodies.push_back(std::vector<uint8_t>(200, 0xAB));
  bodies.push_back(std::vector<uint8_t>(1 << 17, 0x5C));  // crosses buffers
  for (const auto& body : bodies) {
    ASSERT_TRUE(pair.a->Send(MsgType::kCounterResult, body, &error)) << error;
  }
  pair.a->Close();
  for (const auto& body : bodies) {
    Frame frame;
    ASSERT_EQ(pair.b->Recv(&frame, &error), FrameConn::RecvResult::kOk)
        << error;
    EXPECT_EQ(frame.type, MsgType::kCounterResult);
    EXPECT_EQ(frame.body, body);
  }
  Frame frame;
  EXPECT_EQ(pair.b->Recv(&frame, &error), FrameConn::RecvResult::kEof);
}

TEST(FrameConnTest, WrongMagicIsRejected) {
  ConnPair pair;
  const char junk[8] = {'P', 'P', 'A', 'F', 'I', 'L', 'E', '1'};
  ASSERT_EQ(write(pair.a->fd(), junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  std::string error;
  EXPECT_FALSE(pair.b->ExpectMagic(&error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

// Builds the exact byte stream Send() would produce for one frame.
std::vector<uint8_t> RawFrame(MsgType type,
                              const std::vector<uint8_t>& body) {
  ConnPair pair;
  std::string error;
  EXPECT_TRUE(pair.a->Send(type, body, &error)) << error;
  pair.a->Close();
  std::vector<uint8_t> raw;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = read(pair.b->fd(), buf, sizeof(buf))) > 0) {
    raw.insert(raw.end(), buf, buf + n);
  }
  return raw;
}

// Feeds raw bytes (no magic) to a fresh FrameConn and decodes one frame.
FrameConn::RecvResult DecodeRaw(const std::vector<uint8_t>& raw, Frame* frame,
                                std::string* error) {
  ConnPair pair;
  size_t off = 0;
  while (off < raw.size()) {
    ssize_t n = write(pair.a->fd(), raw.data() + off, raw.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  pair.a->Close();
  return pair.b->Recv(frame, error);
}

// Every single-bit flip of a valid frame stream must be rejected (CRC-32
// catches all single-bit errors in the covered region; a flipped length
// varint misframes and fails the CRC or truncates). None may decode as kOk.
TEST(FrameConnTest, EverySingleBitFlipIsRejected) {
  const std::vector<uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8, 0xFF, 0x00};
  const std::vector<uint8_t> good = RawFrame(MsgType::kCounterChunk, body);
  {
    Frame frame;
    std::string error;
    ASSERT_EQ(DecodeRaw(good, &frame, &error), FrameConn::RecvResult::kOk);
    ASSERT_EQ(frame.body, body);
  }
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = good;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      Frame frame;
      std::string error;
      FrameConn::RecvResult r = DecodeRaw(mutated, &frame, &error);
      EXPECT_NE(r, FrameConn::RecvResult::kOk)
          << "byte " << i << " bit " << bit << " decoded as a valid frame";
      if (r == FrameConn::RecvResult::kError) {
        EXPECT_FALSE(error.empty()) << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(FrameConnTest, TruncationMidFrameIsAnErrorNotEof) {
  const std::vector<uint8_t> good =
      RawFrame(MsgType::kCounterChunk, std::vector<uint8_t>(64, 0x33));
  for (size_t keep : {size_t{1}, good.size() / 2, good.size() - 1}) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + keep);
    Frame frame;
    std::string error;
    EXPECT_EQ(DecodeRaw(cut, &frame, &error), FrameConn::RecvResult::kError)
        << "kept " << keep;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrameConnTest, OversizedAndOverflowingLengthsAreRejected) {
  // Length past the frame cap.
  std::vector<uint8_t> oversized;
  PutVarint64(&oversized, net::kMaxFramePayload + 1);
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeRaw(oversized, &frame, &error),
            FrameConn::RecvResult::kError);
  EXPECT_FALSE(error.empty());

  // A 10-byte varint whose 10th byte has payload bits beyond bit 63 — the
  // encoding of a >= 2^64 length. Must fail, not wrap (the satellite fix).
  std::vector<uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x02);
  error.clear();
  EXPECT_EQ(DecodeRaw(overflow, &frame, &error),
            FrameConn::RecvResult::kError);
  EXPECT_FALSE(error.empty());

  // An 11-byte (overlong) varint.
  std::vector<uint8_t> overlong(10, 0x80);
  overlong.push_back(0x01);
  error.clear();
  EXPECT_EQ(DecodeRaw(overlong, &frame, &error),
            FrameConn::RecvResult::kError);

  // A zero-length frame has no type byte.
  std::vector<uint8_t> empty_frame = {0x00};
  error.clear();
  EXPECT_EQ(DecodeRaw(empty_frame, &frame, &error),
            FrameConn::RecvResult::kError);
}

// ---------------------------------------------------------------------------
// In-process worker fleet: servers on unix sockets + a NetContext client.
// ---------------------------------------------------------------------------

std::string MakeTempDir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "ppa-net-test-XXXXXX").string();
  char* made = mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

/// N in-process ShardWorkerServers on unix sockets plus the NetContext
/// connected to them. The context must die before the servers stop.
/// `plans` injects a deterministic fault script into the servers: one
/// entry applies to every worker, more give one per worker.
struct Fleet {
  std::string dir;
  std::vector<std::unique_ptr<ShardWorkerServer>> servers;
  std::unique_ptr<NetContext> context;

  explicit Fleet(uint32_t n, std::vector<net::FaultPlan> plans = {},
                 uint64_t window_bytes = 1 << 20, int io_timeout_ms = 20000) {
    dir = MakeTempDir();
    std::string endpoints;
    for (uint32_t w = 0; w < n; ++w) {
      WorkerOptions options;
      options.listen = "unix:" + dir + "/w" + std::to_string(w) + ".sock";
      if (!plans.empty()) options.fault_plan = plans[plans.size() == 1 ? 0 : w];
      servers.push_back(std::make_unique<ShardWorkerServer>(options));
      std::string error;
      EXPECT_TRUE(servers.back()->Start(&error)) << error;
      if (!endpoints.empty()) endpoints += ',';
      endpoints += options.listen;
    }
    NetConfig config;
    config.endpoints = endpoints;
    config.window_bytes = window_bytes;
    config.io_timeout_ms = io_timeout_ms;
    config.connect_timeout_ms = 5000;
    context = MakeNetContext(config);
    EXPECT_EQ(context->num_workers(), n);
  }

  ~Fleet() {
    context.reset();  // closes connections before the servers stop
    for (auto& server : servers) server->Stop();
    std::filesystem::remove_all(dir);
  }
};

std::vector<Read> SimulatedReads(uint64_t genome_length, double coverage,
                                 double error_rate, uint64_t seed) {
  GenomeConfig genome_config;
  genome_config.length = genome_length;
  genome_config.seed = seed;
  PackedSequence reference = GenerateGenome(genome_config);
  ReadSimConfig read_config;
  read_config.coverage = coverage;
  read_config.error_rate = error_rate;
  read_config.seed = seed + 1;
  return SimulateReads(reference, read_config);
}

std::vector<std::vector<Pair>> SortedPartitions(const MerCounts& counts) {
  std::vector<std::vector<Pair>> out;
  out.reserve(counts.size());
  for (const auto& part : counts) {
    std::vector<Pair> sorted(part.begin(), part.end());
    std::sort(sorted.begin(), sorted.end());
    out.push_back(std::move(sorted));
  }
  return out;
}

// The headline property: a fleet-distributed CounterSession is
// bit-identical to the in-process batch counter, per output partition,
// across k x shards x workers.
TEST(DistributedCounterTest, BitIdenticalToInProcessAcrossGrid) {
  std::vector<Read> reads = SimulatedReads(20000, 10.0, 0.01, 77);
  for (int k : {15, 31}) {
    KmerCountConfig config;
    config.mer_length = k;
    config.num_workers = 4;
    config.num_threads = 4;
    config.coverage_threshold = 2;
    KmerCountStats oracle_stats;
    auto expected =
        SortedPartitions(CountCanonicalMers(reads, config, &oracle_stats));
    for (uint32_t shards : {1u, 8u}) {
      for (uint32_t workers : {1u, 2u, 3u}) {
        Fleet fleet(workers);
        config.num_shards = shards;
        config.net = fleet.context.get();
        CounterSession session(config);
        session.AddBatch(reads);
        KmerCountStats stats;
        auto actual = SortedPartitions(session.Finish(&stats));
        EXPECT_EQ(actual, expected)
            << "k=" << k << " shards=" << shards << " workers=" << workers;
        EXPECT_EQ(stats.distributed_workers, workers);
        EXPECT_GT(stats.net_chunks, 0u);
        EXPECT_GT(stats.net_sent_bytes, 0u);
        EXPECT_GT(stats.net_received_bytes, 0u);
        EXPECT_EQ(stats.distinct_mers, oracle_stats.distinct_mers);
        EXPECT_EQ(stats.surviving_mers, oracle_stats.surviving_mers);
        EXPECT_EQ(stats.total_windows, oracle_stats.total_windows);
        config.net = nullptr;
      }
    }
  }
}

// Same property over TCP (port 0 -> a free port, resolved by the server).
TEST(DistributedCounterTest, WorksOverTcp) {
  WorkerOptions options;
  options.listen = "0";
  ShardWorkerServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.listen_spec(), "0");  // resolved to the bound port
  {
    NetConfig config;
    config.endpoints = server.listen_spec();
    std::unique_ptr<NetContext> context = MakeNetContext(config);
    ASSERT_EQ(context->num_workers(), 1u);

    std::vector<Read> reads = SimulatedReads(8000, 8.0, 0.01, 5);
    KmerCountConfig count_config;
    count_config.mer_length = 21;
    count_config.num_workers = 2;
    count_config.num_threads = 2;
    auto expected = SortedPartitions(CountCanonicalMers(reads, count_config));
    count_config.net = context.get();
    CounterSession session(count_config);
    session.AddBatch(reads);
    KmerCountStats stats;
    EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
    EXPECT_EQ(stats.distributed_workers, 1u);
  }
  server.Stop();
}

// A tiny flow-control window forces real backpressure (many round trips);
// counts must be unaffected and the session must not deadlock.
TEST(DistributedCounterTest, TinyWindowStillBitIdentical) {
  std::vector<Read> reads = SimulatedReads(10000, 8.0, 0.02, 13);
  KmerCountConfig config;
  config.mer_length = 17;
  config.num_workers = 3;
  config.num_threads = 4;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  Fleet fleet(2, /*plans=*/{}, /*window_bytes=*/4096);
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
}

TEST(DistributedCounterTest, EmptyInputYieldsEmptyPartitions) {
  Fleet fleet(2);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 3;
  config.net = fleet.context.get();
  CounterSession session(config);
  KmerCountStats stats;
  MerCounts counts = session.Finish(&stats);
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& part : counts) EXPECT_TRUE(part.empty());
  EXPECT_EQ(stats.distributed_workers, 2u);
  EXPECT_EQ(stats.net_chunks, 0u);
}

// The telemetry reconciliation property: the worker-side counters pulled
// over the wire (kMetricsRequest/kMetricsSnapshot) account for exactly the
// traffic the client sent — every counter chunk was served by exactly one
// worker, and every chunk byte the client counted arrived.
TEST(DistributedCounterTest, TelemetryReconcilesWithClientCounters) {
  std::vector<Read> reads = SimulatedReads(15000, 8.0, 0.01, 21);
  Fleet fleet(2);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 3;
  config.num_threads = 4;
  config.num_shards = 8;
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  session.Finish(&stats);
  ASSERT_GT(stats.net_chunks, 0u);

  std::vector<obs::TelemetrySnapshot> telemetry =
      fleet.context->CollectMetrics();
  ASSERT_EQ(telemetry.size(), 2u);
  uint64_t frames_served = 0, chunk_bytes = 0;
  for (const obs::TelemetrySnapshot& worker : telemetry) {
    EXPECT_FALSE(worker.source.empty());
    EXPECT_GE(worker.Get("worker.connections"), 1u);
    EXPECT_EQ(worker.Get("worker.crc_rejects"), 0u);
    // frames_total counts everything (chunks + flush + metrics request);
    // frames_served counts only accepted counter chunks.
    EXPECT_GE(worker.Get("worker.frames_total"),
              worker.Get("worker.frames_served"));
    frames_served += worker.Get("worker.frames_served");
    chunk_bytes += worker.Get("worker.chunk_bytes");
  }
  EXPECT_EQ(frames_served, stats.net_chunks);
  EXPECT_EQ(chunk_bytes, stats.net_sent_bytes);

  // The wire snapshot is the server's own registry, faithfully encoded.
  uint64_t direct_served = 0;
  for (auto& server : fleet.servers) {
    const obs::SnapshotView direct(server->metrics().Snapshot());
    direct_served += direct.Get("worker.frames_served");
  }
  EXPECT_EQ(direct_served, frames_served);
}

// Parses a fault-plan literal or dies loudly — test scripts are static.
net::FaultPlan Plan(const std::string& text) {
  net::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(net::FaultPlan::Parse(text, &plan, &error)) << error;
  return plan;
}

// The tentpole recovery property: one of two workers dropping its
// connection mid-stream is survived — its shard leases move to the
// survivor, the journal replays the orphaned chunks, and the output is
// bit-identical to the in-process counter.
TEST(DistributedCounterTest, WorkerDeathMidStreamRecoversBitIdentical) {
  std::vector<Read> reads = SimulatedReads(30000, 12.0, 0.02, 3);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 8;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  Fleet fleet(2, {Plan("drop-conn@frame=5"), net::FaultPlan{}});
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_GT(stats.shards_reassigned, 0u);
  EXPECT_GT(stats.chunks_replayed, 0u);
  EXPECT_GT(stats.net_journal_bytes, 0u);
  EXPECT_FALSE(stats.net_degraded);
  // A surviving worker took the shards over, so no table lives here.
  EXPECT_EQ(stats.table_bytes, 0u);
}

// A worker dying during result collection (after the whole data stream
// arrived) loses only its uncommitted staging; the shards rebuild on the
// survivor. The death frame is probed from a healthy run: AddBatch scans
// on the calling thread, so the frame sequence each worker sees is
// deterministic, and the last frame a healthy worker 0 received is its
// kCounterFinish — dying exactly there is a mid-collection crash.
TEST(DistributedCounterTest, DeathDuringCollectionRecovers) {
  std::vector<Read> reads = SimulatedReads(20000, 10.0, 0.01, 9);
  KmerCountConfig config;
  config.mer_length = 19;
  config.num_workers = 3;
  config.num_threads = 4;
  config.num_shards = 8;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  uint64_t finish_frame = 0;
  {
    Fleet healthy(2);
    config.net = healthy.context.get();
    CounterSession session(config);
    session.AddBatch(reads);
    KmerCountStats stats;
    ASSERT_EQ(SortedPartitions(session.Finish(&stats)), expected);
    const obs::SnapshotView w0(healthy.servers[0]->metrics().Snapshot());
    finish_frame = w0.Get("worker.frames_total");
    ASSERT_GT(finish_frame, 2u);  // open + at least one chunk + finish
  }
  Fleet fleet(2, {Plan("drop-conn@frame=" + std::to_string(finish_frame)),
                  net::FaultPlan{}});
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_GT(stats.shards_reassigned, 0u);
  EXPECT_GT(stats.chunks_replayed, 0u);
  EXPECT_FALSE(stats.net_degraded);
}

// Every worker dying degrades the run to local counting from the journal —
// still bit-identical, still exit-clean. (A single plan applies to every
// server, so both workers die after their third frame.)
TEST(DistributedCounterTest, AllWorkersDyingDegradesToLocalBitIdentical) {
  std::vector<Read> reads = SimulatedReads(30000, 12.0, 0.02, 3);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 8;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  Fleet fleet(2, {Plan("drop-conn@frame=4")});
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  EXPECT_EQ(stats.worker_failures, 2u);
  EXPECT_TRUE(stats.net_degraded);
  // The rebuilt shards' tables live in this process.
  EXPECT_GE(stats.table_bytes, 2048u * 12);
}

// A worker whose reply frame is corrupted (CRC flip) is indistinguishable
// from a dying one on the coordinator side: the connection fails and
// recovery takes over.
TEST(DistributedCounterTest, CorruptWorkerFrameTriggersRecovery) {
  std::vector<Read> reads = SimulatedReads(20000, 10.0, 0.02, 31);
  KmerCountConfig config;
  config.mer_length = 17;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 8;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  Fleet fleet(2, {Plan("corrupt-frame@frame=4"), net::FaultPlan{}});
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_FALSE(stats.net_degraded);
}

// A stalled (not dead) worker is detected by the heartbeat deadline — the
// run recovers instead of waiting out the stall.
TEST(DistributedCounterTest, StalledWorkerDetectedAndRecovered) {
  std::vector<Read> reads = SimulatedReads(30000, 12.0, 0.02, 11);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 8;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  // The stall (2.5 s) far exceeds the io timeout (400 ms): the liveness
  // thread must declare the worker dead long before the stall ends.
  Fleet fleet(2, {Plan("stall-worker@frame=4@ms=2500"), net::FaultPlan{}},
              /*window_bytes=*/1 << 20, /*io_timeout_ms=*/400);
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  EXPECT_EQ(stats.worker_failures, 1u);
  EXPECT_FALSE(stats.net_degraded);
}

// An unreachable endpoint fails fleet construction within the bounded
// retry budget, with the endpoint named in the diagnostic.
TEST(NetContextTest, UnreachableEndpointFailsWithBoundedRetry) {
  NetConfig config;
  config.endpoints = "unix:/nonexistent-dir-zzz/no.sock";
  config.connect_timeout_ms = 300;
  try {
    MakeNetContext(config);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no.sock"), std::string::npos)
        << e.what();
  }
}

TEST(NetContextTest, NoWorkersAskedReturnsNull) {
  NetConfig config;
  EXPECT_EQ(MakeNetContext(config), nullptr);
}

// Connects a raw frame connection to a fleet server and completes the
// magic exchange + kHello offering `offer`. The reply frame lands in
// `*reply`; the connection is handed to `*conn_out` when given, else it
// closes on return.
void RawHello(const std::string& spec, uint64_t offer, Frame* reply,
              std::unique_ptr<FrameConn>* conn_out = nullptr) {
  net::Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(net::ParseEndpoint(spec, &endpoint, &error)) << error;
  int fd = net::ConnectWithRetry(endpoint, 5000, &error);
  ASSERT_GE(fd, 0) << error;
  auto conn = std::make_unique<FrameConn>(fd);
  ASSERT_TRUE(conn->SendMagic(&error)) << error;
  std::vector<uint8_t> hello;
  PutVarint64(&hello, offer);
  ASSERT_TRUE(conn->Send(MsgType::kHello, hello, &error)) << error;
  ASSERT_TRUE(conn->ExpectMagic(&error)) << error;
  ASSERT_EQ(conn->Recv(reply, &error), FrameConn::RecvResult::kOk) << error;
  if (conn_out != nullptr) *conn_out = std::move(conn);
}

// Coordinator and worker ship together, so the hello accepts exactly
// kProtocolVersion. A raw hello offering one more or one less gets one
// kError naming both versions; a WorkerClient facing a worker built at one
// more or one less is refused the same way and throws that diagnostic.
TEST(WorkerServerTest, HelloRefusesAnyOtherProtocolVersion) {
  Fleet fleet(1);  // reuses its server; open more raw connections
  const std::string spec = fleet.servers[0]->listen_spec();
  const std::vector<uint32_t> others = {net::kProtocolVersion - 1,
                                        net::kProtocolVersion + 1};
  for (const uint32_t offer : others) {
    Frame frame;
    RawHello(spec, offer, &frame);
    ASSERT_EQ(frame.type, MsgType::kError);
    const std::string text(frame.body.begin(), frame.body.end());
    EXPECT_EQ(text, "protocol version " + std::to_string(offer) + " != " +
                        std::to_string(net::kProtocolVersion));
  }

  const std::string dir = MakeTempDir();
  const std::string worker_spec = "unix:" + dir + "/other.sock";
  net::Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(net::ParseEndpoint(worker_spec, &endpoint, &error)) << error;
  int listen_fd = net::ListenOn(endpoint, &error);
  ASSERT_GE(listen_fd, 0) << error;
  for (const uint32_t own : others) {
    // A worker built at `own` refuses our hello with its diagnostic.
    std::thread other_worker([&] {
      std::string err;
      int fd = net::AcceptOn(listen_fd, &err);
      ASSERT_GE(fd, 0) << err;
      FrameConn conn(fd);
      ASSERT_TRUE(conn.ExpectMagic(&err)) << err;
      Frame hello;
      ASSERT_EQ(conn.Recv(&hello, &err), FrameConn::RecvResult::kOk) << err;
      size_t pos = 0;
      uint64_t offered = 0;
      ASSERT_TRUE(
          GetVarint64(hello.body.data(), hello.body.size(), &pos, &offered));
      ASSERT_TRUE(conn.SendMagic(&err)) << err;
      const std::string text = "protocol version " + std::to_string(offered) +
                               " != " + std::to_string(own);
      ASSERT_TRUE(conn.Send(MsgType::kError,
                            std::vector<uint8_t>(text.begin(), text.end()),
                            &err))
          << err;
    });
    net::WorkerClient::Options options;
    options.endpoint = worker_spec;
    std::string thrown;
    try {
      net::WorkerClient client(options);
    } catch (const std::runtime_error& e) {
      thrown = e.what();
    }
    other_worker.join();
    EXPECT_NE(thrown.find("protocol version " +
                          std::to_string(net::kProtocolVersion) +
                          " != " + std::to_string(own)),
              std::string::npos)
        << thrown;
  }
  close(listen_fd);
  std::filesystem::remove_all(dir);
}

// A frame type the worker does not serve — a retired record-store type
// (9-15) or a byte never assigned — gets one kError naming the byte, then
// the connection drops.
TEST(WorkerServerTest, RefusesRetiredAndUnknownFrameTypesByByte) {
  Fleet fleet(1);  // reuses its server; open more raw connections
  const std::string spec = fleet.servers[0]->listen_spec();
  for (const unsigned type_byte : {9u, 15u, 0u, 255u}) {
    SCOPED_TRACE("type byte " + std::to_string(type_byte));
    Frame frame;
    std::unique_ptr<FrameConn> conn;
    RawHello(spec, net::kProtocolVersion, &frame, &conn);
    ASSERT_NE(conn, nullptr);
    ASSERT_EQ(frame.type, MsgType::kHelloOk);
    std::string error;
    ASSERT_TRUE(conn->Send(static_cast<MsgType>(type_byte),
                           std::vector<uint8_t>{}, &error))
        << error;
    ASSERT_EQ(conn->Recv(&frame, &error), FrameConn::RecvResult::kOk)
        << error;
    ASSERT_EQ(frame.type, MsgType::kError);
    const std::string text(frame.body.begin(), frame.body.end());
    EXPECT_NE(text.find("frame type " + std::to_string(type_byte) + " "),
              std::string::npos)
        << text;
    EXPECT_EQ(conn->Recv(&frame, &error), FrameConn::RecvResult::kEof)
        << error;
  }
}

// Garbage after a valid handshake gets a kError frame, then the connection
// drops — the worker never processes what it could not validate.
TEST(WorkerServerTest, MalformedChunkGetsErrorFrame) {
  Fleet fleet(1);
  net::WorkerClient& client = fleet.context->client(0);
  std::vector<uint8_t> open;
  PutVarint64(&open, 21);  // mer_length
  PutVarint64(&open, 4);   // num_shards
  PutVarint64(&open, 2);   // num_workers
  PutVarint64(&open, 1);   // coverage_threshold
  ASSERT_TRUE(client.SendControl(MsgType::kCounterOpen, open));
  // A chunk whose payload is not a decodable pass-1 chunk.
  std::vector<uint8_t> junk;
  PutVarint64(&junk, 1);  // shard
  for (int i = 0; i < 32; ++i) junk.push_back(0xEE);
  std::atomic<bool> done_ran{false};
  client.SendData(MsgType::kCounterChunk, junk,
                  [&done_ran] { done_ran.store(true); });
  // The worker answers kError and drops the connection; the client fails
  // and the pending completion drains. NextResponse wakes when the failure
  // flag is set, which may be a beat before the drain runs the callback —
  // wait it out instead of racing it.
  Frame frame;
  EXPECT_FALSE(client.NextResponse(&frame));
  EXPECT_TRUE(client.failed());
  EXPECT_FALSE(client.error().empty());
  for (int i = 0; i < 2000 && !done_ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done_ran.load());
}

// ---------------------------------------------------------------------------
// Retry backoff (pure computation: no clock, no sleeps).
// ---------------------------------------------------------------------------

TEST(BackoffTest, GrowsGeometricallyToTheCapWithoutJitter) {
  net::BackoffPolicy policy;
  policy.initial_ms = 10;
  policy.max_ms = 500;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  net::Backoff backoff(policy);
  std::vector<uint32_t> delays;
  for (int i = 0; i < 9; ++i) {
    uint32_t d = 0;
    ASSERT_TRUE(backoff.NextDelayMs(&d));
    delays.push_back(d);
  }
  EXPECT_EQ(delays, (std::vector<uint32_t>{10, 20, 40, 80, 160, 320, 500,
                                           500, 500}));
  EXPECT_EQ(backoff.attempts(), 9u);
}

TEST(BackoffTest, AttemptBudgetIsEnforced) {
  net::BackoffPolicy policy;
  policy.max_attempts = 3;
  net::Backoff backoff(policy);
  uint32_t d = 0;
  EXPECT_TRUE(backoff.NextDelayMs(&d));
  EXPECT_TRUE(backoff.NextDelayMs(&d));
  EXPECT_TRUE(backoff.NextDelayMs(&d));
  EXPECT_FALSE(backoff.NextDelayMs(&d));
  EXPECT_EQ(backoff.attempts(), 3u);
}

TEST(BackoffTest, JitterIsBoundedAndDeterministicPerSeed) {
  net::BackoffPolicy policy;
  policy.initial_ms = 100;
  policy.max_ms = 1000;
  policy.jitter = 0.5;
  policy.seed = 42;
  net::Backoff a(policy);
  net::Backoff b(policy);
  for (int i = 0; i < 20; ++i) {
    uint32_t da = 0, db = 0;
    ASSERT_TRUE(a.NextDelayMs(&da));
    ASSERT_TRUE(b.NextDelayMs(&db));
    EXPECT_EQ(da, db) << "same policy+seed must reproduce, attempt " << i;
    EXPECT_GE(da, 1u);
    EXPECT_LE(da, policy.max_ms);
  }
}

// ---------------------------------------------------------------------------
// Fault-plan grammar.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  net::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(net::FaultPlan::Parse(
      "seed=7,drop-conn@frame=3,kill-worker@chunk=2@worker=1,"
      "delay@frame=1@ms=50,stall-worker@ms=200,corrupt-frame@chunk=4",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.rules[0].kind, net::FaultKind::kDropConn);
  EXPECT_EQ(plan.rules[0].frame, 3u);
  EXPECT_EQ(plan.rules[1].kind, net::FaultKind::kKillWorker);
  EXPECT_EQ(plan.rules[1].chunk, 2u);
  EXPECT_EQ(plan.rules[1].worker, 1);
  EXPECT_EQ(plan.rules[2].kind, net::FaultKind::kDelay);
  EXPECT_EQ(plan.rules[2].ms, 50u);
  // ToString re-parses to the same plan (the spawn path ships plans as
  // strings on worker command lines).
  net::FaultPlan reparsed;
  ASSERT_TRUE(net::FaultPlan::Parse(plan.ToString(), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
  EXPECT_EQ(reparsed.rules.size(), plan.rules.size());
}

TEST(FaultPlanTest, RejectsMalformedEntries) {
  for (const char* bad :
       {"bogus", "drop-conn@frame=0", "drop-conn@frame=x", "delay@oops=1",
        "seed=x", "kill-worker@", "@frame=1", "drop-conn@chunk="}) {
    net::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(net::FaultPlan::Parse(bad, &plan, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Empty text is a valid empty plan.
  net::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(net::FaultPlan::Parse("", &plan, &error)) << error;
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, ForWorkerFiltersAndStripsTheScope) {
  net::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(net::FaultPlan::Parse(
      "seed=3,drop-conn@frame=2@worker=0,delay@ms=5,corrupt-frame@worker=1",
      &plan, &error))
      << error;
  const net::FaultPlan w0 = plan.ForWorker(0);
  ASSERT_EQ(w0.rules.size(), 2u);  // its scoped rule + the unscoped one
  EXPECT_EQ(w0.seed, 3u);
  for (const net::FaultRule& rule : w0.rules) EXPECT_EQ(rule.worker, -1);
  const net::FaultPlan w2 = plan.ForWorker(2);
  ASSERT_EQ(w2.rules.size(), 1u);  // only the unscoped delay
  EXPECT_EQ(w2.rules[0].kind, net::FaultKind::kDelay);
}

// ---------------------------------------------------------------------------
// Chunk journal.
// ---------------------------------------------------------------------------

TEST(ChunkJournalTest, AppendsAndReplaysResidentChunks) {
  net::ChunkJournal::Options options;
  options.num_shards = 3;
  net::ChunkJournal journal(options);
  std::vector<std::vector<uint8_t>> wrote;
  for (uint8_t i = 0; i < 5; ++i) {
    wrote.push_back(std::vector<uint8_t>(16 + i, i));
    journal.Append(1, wrote.back());
  }
  journal.Append(2, {0xAA});
  EXPECT_EQ(journal.chunks(0), 0u);
  EXPECT_EQ(journal.chunks(1), 5u);
  EXPECT_EQ(journal.total_chunks(), 6u);
  EXPECT_EQ(journal.spilled_bytes(), 0u);

  std::vector<std::vector<uint8_t>> got;
  std::string error;
  ASSERT_TRUE(journal.Replay(
      1, [&](const std::vector<uint8_t>& p) { got.push_back(p); }, &error))
      << error;
  // Replay order is unspecified; compare as multisets.
  std::sort(got.begin(), got.end());
  std::sort(wrote.begin(), wrote.end());
  EXPECT_EQ(got, wrote);
}

TEST(ChunkJournalTest, OverflowSpillsToDiskAndReplaysEverything) {
  net::ChunkJournal::Options options;
  options.num_shards = 2;
  options.fallback_budget_bytes = 256;  // force overflow quickly
  net::ChunkJournal journal(options);
  const size_t kChunks = 40;
  for (size_t i = 0; i < kChunks; ++i) {
    journal.Append(0, std::vector<uint8_t>(64, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(journal.chunks(0), kChunks);
  EXPECT_GT(journal.spilled_bytes(), 0u);
  EXPECT_EQ(journal.total_bytes(), kChunks * 64u);

  size_t replayed = 0;
  uint64_t byte_sum = 0;
  std::string error;
  ASSERT_TRUE(journal.Replay(
      0,
      [&](const std::vector<uint8_t>& p) {
        ASSERT_EQ(p.size(), 64u);
        ++replayed;
        byte_sum += p[0];
      },
      &error))
      << error;
  EXPECT_EQ(replayed, kChunks);
  EXPECT_EQ(byte_sum, kChunks * (kChunks - 1) / 2);  // every payload, once
}

// A journal on the run's shared spill manager deletes its overflow files
// when it dies, so they do not sit on disk through the run's later jobs;
// the manager's ledger still reports the overflow, and the journal's
// pinned budget charge goes with it.
TEST(ChunkJournalTest, DiscardsItsOverflowFilesFromASharedManager) {
  SpillManager manager;
  MemoryBudget budget(256);  // four 64-byte chunks fit; the rest overflow
  const std::vector<uint32_t> files = {0, 1};  // one per shard, in order
  uint64_t spilled = 0;
  {
    net::ChunkJournal::Options options;
    options.num_shards = 2;
    options.budget = &budget;
    options.spill = &manager;
    net::ChunkJournal journal(options);
    for (size_t i = 0; i < 40; ++i) {
      journal.Append(static_cast<uint32_t>(i % 2),
                     std::vector<uint8_t>(64, static_cast<uint8_t>(i)));
    }
    spilled = journal.spilled_bytes();
    ASSERT_EQ(spilled, 36u * 64u);
    ASSERT_TRUE(manager.Sync()) << manager.error();
    // The journal registered one overflow file per shard on this fresh
    // manager, so they are files 0 and 1.
    for (uint32_t file : files) {
      ASSERT_NE(manager.FilePath(file).find("journal-shard-"),
                std::string::npos);
      ASSERT_TRUE(std::filesystem::exists(manager.FilePath(file)));
    }
  }
  size_t left = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(manager.dir())) {
    left += entry.path().extension() == ".spill" ? 1 : 0;
  }
  EXPECT_EQ(left, 0u);
  const SpillStats stats = manager.Stats(files);
  EXPECT_EQ(stats.spilled_chunks, 36u);
  EXPECT_EQ(stats.spilled_bytes, spilled);
  EXPECT_EQ(stats.spill_files, 2u);
  EXPECT_EQ(budget.resident_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Worker process lifecycle: graceful SIGTERM drain, SIGPIPE immunity.
// ---------------------------------------------------------------------------

// SIGTERM to the real ppa_shard_worker binary drains and exits 0 — an
// orchestrator's routine stop is not a crash.
TEST(WorkerProcessTest, SigtermDrainsAndExitsZero) {
  // The worker binary sits next to this test binary in the build tree.
  const std::string binary =
      (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
       "ppa_shard_worker")
          .string();
  ASSERT_TRUE(std::filesystem::exists(binary)) << binary;
  const std::string dir = MakeTempDir();
  const std::string listen = "unix:" + dir + "/drain.sock";
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(binary.c_str(), "ppa_shard_worker", "--listen", listen.c_str(),
          "--log-level", "silent", static_cast<char*>(nullptr));
    _exit(127);
  }
  // Prove it is serving before signalling: connect and handshake.
  net::Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(net::ParseEndpoint(listen, &endpoint, &error)) << error;
  int fd = net::ConnectWithRetry(endpoint, 10000, &error);
  ASSERT_GE(fd, 0) << error;
  close(fd);
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "status " << status;
  std::filesystem::remove_all(dir);
}

// Writing into a connection whose peer vanished must fail with a
// diagnostic, not deliver SIGPIPE (which would kill the process and the
// whole test run with it).
TEST(WorkerProcessTest, SendToClosedPeerFailsWithoutSigpipe) {
  ConnPair pair;
  pair.b.reset();  // peer gone
  const std::vector<uint8_t> body(1 << 16, 0x77);
  std::string error;
  bool failed = false;
  // The first sends may land in the socket buffer; keep pushing until the
  // kernel reports the broken pipe as an error return.
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !pair.a->Send(MsgType::kCounterResult, body, &error);
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Clock-offset estimation (the trace-stitching time base).
// ---------------------------------------------------------------------------

// An injected worker clock skew — ahead and behind — is recovered by the
// ping-midpoint estimate to well under the skew itself. In-process server
// and client share one MonotonicMicros epoch, so the skew knob is the
// entire true offset and the estimate error is just the RTT asymmetry.
TEST(ClockOffsetTest, EstimatesInjectedSkewBothDirections) {
  const std::string dir = MakeTempDir();
  int iteration = 0;
  for (const int64_t skew_us : {400000ll, -400000ll}) {
    WorkerOptions options;
    options.listen =
        "unix:" + dir + "/skew" + std::to_string(iteration++) + ".sock";
    options.clock_skew_us = skew_us;
    ShardWorkerServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    {
      net::WorkerClient::Options copts;
      copts.endpoint = options.listen;
      net::WorkerClient client(copts);  // probes at handshake
      // Unix-socket RTTs are tens of microseconds; 20 ms of tolerance is
      // orders of magnitude of slack without letting the sign flip.
      EXPECT_NEAR(static_cast<double>(client.clock_offset_us()),
                  static_cast<double>(skew_us), 20000.0);
      // Re-probing (what CollectTraces does) lands in the same place.
      ASSERT_TRUE(client.ProbeClockOffset());
      EXPECT_NEAR(static_cast<double>(client.clock_offset_us()),
                  static_cast<double>(skew_us), 20000.0);
    }
    server.Stop();
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// HTTP sniffing on the worker's listen socket (Prometheus pull).
// ---------------------------------------------------------------------------

int RawConnect(const std::string& spec) {
  net::Endpoint endpoint;
  std::string error;
  EXPECT_TRUE(net::ParseEndpoint(spec, &endpoint, &error)) << error;
  int fd = net::ConnectWithRetry(endpoint, 5000, &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

void WriteAll(int fd, const std::string& text) {
  size_t sent = 0;
  while (sent < text.size()) {
    ssize_t n = write(fd, text.data() + sent, text.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

std::string ReadUntilEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fd, buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

TEST(WorkerHttpTest, GetOnTheFrameSocketReturnsAnExposition) {
  Fleet fleet(1);
  int fd = RawConnect(fleet.servers[0]->listen_spec());
  WriteAll(fd, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
  shutdown(fd, SHUT_WR);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  ASSERT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // The body is the worker's own registry, in exposition form — including
  // the scrape counting itself.
  EXPECT_NE(response.find("# TYPE ppa_worker_connections counter"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("ppa_worker_http_requests 1\n"), std::string::npos)
      << response;
  // Content-Length is exact, so curl-style clients do not hang.
  const size_t header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const size_t body_bytes = response.size() - header_end - 4;
  EXPECT_NE(response.find("Content-Length: " + std::to_string(body_bytes) +
                          "\r\n"),
            std::string::npos)
      << response;
}

TEST(WorkerHttpTest, PipelinedRequestsEachGetAResponse) {
  Fleet fleet(1);
  int fd = RawConnect(fleet.servers[0]->listen_spec());
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  WriteAll(fd, get + get);  // both requests in one segment
  shutdown(fd, SHUT_WR);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  size_t count = 0;
  for (size_t at = response.find("HTTP/1.0 200 OK");
       at != std::string::npos;
       at = response.find("HTTP/1.0 200 OK", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u) << response;
}

// The sniff must wait out a slow client: "GE" alone is not yet decidable,
// and the rest arriving later still routes to the HTTP handler.
TEST(WorkerHttpTest, SlowFirstBytesStillSniffAsHttp) {
  Fleet fleet(1);
  int fd = RawConnect(fleet.servers[0]->listen_spec());
  WriteAll(fd, "GE");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  WriteAll(fd, "T /metrics HTTP/1.0\r\n\r\n");
  shutdown(fd, SHUT_WR);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
}

// Bytes that are neither "GET " nor the frame magic close cleanly (no
// HTTP response, no hang) and leave the server serving.
TEST(WorkerHttpTest, JunkFirstBytesCloseCleanly) {
  Fleet fleet(1);
  int fd = RawConnect(fleet.servers[0]->listen_spec());
  WriteAll(fd, "BOGUS bytes that are neither protocol");
  shutdown(fd, SHUT_WR);
  const std::string response = ReadUntilEof(fd);
  close(fd);
  EXPECT_EQ(response.find("HTTP/1.0"), std::string::npos) << response;

  // The server shrugged it off: a well-formed scrape still answers.
  fd = RawConnect(fleet.servers[0]->listen_spec());
  WriteAll(fd, "GET /metrics HTTP/1.0\r\n\r\n");
  shutdown(fd, SHUT_WR);
  const std::string again = ReadUntilEof(fd);
  close(fd);
  EXPECT_EQ(again.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << again;
}

// Scrapes hammering the listen socket must not perturb concurrent frame
// clients: a counting run stays bit-identical under scrape load.
TEST(WorkerHttpTest, ScrapesDoNotDisturbFrameClients) {
  std::vector<Read> reads = SimulatedReads(10000, 8.0, 0.01, 41);
  KmerCountConfig config;
  config.mer_length = 19;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 4;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  Fleet fleet(2);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      for (auto& server : fleet.servers) {
        int fd = RawConnect(server->listen_spec());
        if (fd < 0) continue;
        WriteAll(fd, "GET /metrics HTTP/1.0\r\n\r\n");
        shutdown(fd, SHUT_WR);
        ReadUntilEof(fd);
        close(fd);
      }
    }
  });
  config.net = fleet.context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);
  stop.store(true);
  scraper.join();
  const obs::SnapshotView w0(fleet.servers[0]->metrics().Snapshot());
  EXPECT_GE(w0.Get("worker.http_requests"), 1u);
  EXPECT_EQ(w0.Get("worker.crc_rejects"), 0u);
}

// ---------------------------------------------------------------------------
// Cross-process trace stitching end to end: a spawned 2-worker fleet.
// ---------------------------------------------------------------------------

// The acceptance property of the stitched timeline: with tracing armed, a
// real (spawned-process) fleet yields one merged trace where both worker
// processes appear on their own pid tracks and every offset-corrected
// worker timestamp lands inside the coordinator-clock run window.
TEST(DistributedTraceTest, SpawnedFleetMergesOneTimelineAcrossPids) {
  obs::StartTrace();
  obs::SetTraceThreadName("net-test-coordinator");
  const int64_t run_start_us = static_cast<int64_t>(MonotonicMicros());

  std::vector<Read> reads = SimulatedReads(12000, 8.0, 0.01, 53);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 4;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));

  NetConfig net_config;
  net_config.spawn_workers = 2;
  net_config.arm_trace = true;
  std::unique_ptr<NetContext> context = MakeNetContext(net_config);
  ASSERT_NE(context, nullptr);
  ASSERT_EQ(context->num_workers(), 2u);
  config.net = context.get();
  CounterSession session(config);
  session.AddBatch(reads);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);

  std::vector<obs::ProcessTrace> traces = context->CollectTraces();
  const int64_t run_end_us = static_cast<int64_t>(MonotonicMicros());
  obs::StopTrace();

  ASSERT_EQ(traces.size(), 2u);
  // Generous slack over the probe error (RTT midpoint on a loaded box).
  const int64_t kSlackUs = 200000;
  for (const obs::ProcessTrace& trace : traces) {
    EXPECT_FALSE(trace.label.empty());
    bool saw_ingest = false, saw_finalize = false;
    for (const obs::RemoteTraceEvent& event : trace.events) {
      if (event.name == "worker.chunk_ingest") saw_ingest = true;
      if (event.name == "worker.count_finalize") saw_finalize = true;
      const int64_t corrected = event.start_us - trace.clock_offset_us;
      EXPECT_GE(corrected + kSlackUs, run_start_us) << event.name;
      EXPECT_LE(corrected, run_end_us + kSlackUs) << event.name;
    }
    EXPECT_TRUE(saw_ingest) << trace.label;
    EXPECT_TRUE(saw_finalize) << trace.label;
  }

  // The merged JSON puts the coordinator on pid 1 and each worker on its
  // own pid track, offset-corrected onto one timeline.
  std::ostringstream out;
  obs::WriteTraceJson(out, traces);
  context.reset();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<uint64_t> ingest_pids;
  std::set<uint64_t> named_pids;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    const JsonValue* name = e.Find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (ph->str == "X" && name->str == "worker.chunk_ingest") {
      ingest_pids.insert(e.GetU64("pid"));
    }
    if (ph->str == "M" && name->str == "process_name") {
      named_pids.insert(e.GetU64("pid"));
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("name")->str.rfind("worker ", 0), 0u);
    }
  }
  EXPECT_EQ(ingest_pids, (std::set<uint64_t>{2, 3}));
  EXPECT_EQ(named_pids, (std::set<uint64_t>{2, 3}));
}

}  // namespace
}  // namespace ppa
