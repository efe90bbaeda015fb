// Micro-benchmarks (google-benchmark): k-mer arithmetic, the integer-ID
// vs string-ID design claim (A4) — "Pregel heavily checks vertex IDs for
// message delivery, and integer IDs benefit from efficient word-level
// instructions" (Sec. IV.A) — and serial vs sharded-parallel (k+1)-mer
// counting throughput on the simulated HC-2 dataset (the dominant cost of
// DBG construction).
//
// The custom main() additionally runs the counter's SIMD and distributed
// comparisons on the HC-2-sim workload before the registered
// benchmarks and writes their measurements to BENCH_kmer.json (override the path with
// PPA_BENCH_JSON), so the perf trajectory of the counter accumulates in
// machine-readable form. CI runs just that part with
// --benchmark_filter='^$'.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "net/coordinator.h"
#include "net/worker.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "dbg/adjacency.h"
#include "dbg/kmer_counter.h"
#include "dna/encode_simd.h"
#include "dna/kmer.h"
#include "sim/datasets.h"
#include "util/cpu.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/random.h"

namespace ppa {
namespace {

std::vector<uint64_t> RandomKmerCodes(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> codes;
  codes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    codes.push_back(rng.Next() & ((1ULL << (2 * k)) - 1));
  }
  return codes;
}

void BM_ReverseComplement(benchmark::State& state) {
  auto codes = RandomKmerCodes(1024, 31, 1);
  size_t i = 0;
  for (auto _ : state) {
    Kmer kmer(codes[i++ & 1023], 31);
    benchmark::DoNotOptimize(kmer.ReverseComplement().code());
  }
}
BENCHMARK(BM_ReverseComplement);

void BM_Canonical(benchmark::State& state) {
  auto codes = RandomKmerCodes(1024, 31, 2);
  size_t i = 0;
  for (auto _ : state) {
    Kmer kmer(codes[i++ & 1023], 31);
    benchmark::DoNotOptimize(kmer.Canonical().code());
  }
}
BENCHMARK(BM_Canonical);

void BM_KmerWindowScan(benchmark::State& state) {
  Rng rng(3);
  std::string read;
  for (int i = 0; i < 4096; ++i) read += CharFromBase(rng.Next() & 3);
  for (auto _ : state) {
    KmerWindow window(31);
    uint64_t acc = 0;
    for (char c : read) {
      if (window.Push(static_cast<uint8_t>(BaseFromChar(c)))) {
        acc ^= window.Current().Canonical().code();
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(read.size()));
}
BENCHMARK(BM_KmerWindowScan);

void BM_NeighborReconstruction(benchmark::State& state) {
  auto codes = RandomKmerCodes(1024, 31, 4);
  size_t i = 0;
  for (auto _ : state) {
    Kmer kmer(codes[i & 1023], 31);
    AdjItem item{static_cast<uint8_t>(i & 3),
                 static_cast<uint8_t>((i >> 2) & 1),
                 static_cast<Side>((i >> 3) & 1),
                 static_cast<Side>((i >> 4) & 1)};
    benchmark::DoNotOptimize(NeighborKmer(kmer, item).code());
    ++i;
  }
}
BENCHMARK(BM_NeighborReconstruction);

// A4: hash-table lookups with integer IDs vs sequence-string IDs.
void BM_LookupIntegerIds(benchmark::State& state) {
  auto codes = RandomKmerCodes(1 << 16, 31, 5);
  std::unordered_map<uint64_t, uint32_t, IdHash> table;
  for (uint64_t c : codes) table.emplace(c, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(codes[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_LookupIntegerIds);

void BM_LookupStringIds(benchmark::State& state) {
  auto codes = RandomKmerCodes(1 << 16, 31, 5);
  std::unordered_map<std::string, uint32_t> table;
  std::vector<std::string> keys;
  keys.reserve(codes.size());
  for (uint64_t c : codes) {
    keys.push_back(Kmer(c, 31).ToString());
    table.emplace(keys.back(), 1);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i++ & 0xFFFF]));
  }
}
BENCHMARK(BM_LookupStringIds);

// ---------------------------------------------------------------------------
// SIMD kernel micro-benches: base classification, 2-bit packing, and the
// IEEE CRC-32. Each registers once per available kernel / dispatch mode so
// a plain `--benchmark_filter=Classify|Pack|Crc32` run prints the
// per-kernel GB/s side by side.
// ---------------------------------------------------------------------------

std::string RandomBasesBuffer(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (auto& c : out) c = CharFromBase(rng.Next() & 3);
  return out;
}

void BM_ClassifyBases(benchmark::State& state) {
  const auto kernels = AvailableEncodeKernels();
  const auto& kernel = kernels[static_cast<size_t>(state.range(0))];
  if (!kernel.supported) {
    state.SkipWithError("kernel unsupported on this host");
    return;
  }
  const std::string bases = RandomBasesBuffer(1 << 20, 11);
  std::vector<uint8_t> codes(bases.size());
  for (auto _ : state) {
    kernel.classify(bases.data(), bases.size(), codes.data());
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bases.size()));
  state.SetLabel(kernel.name);
}
BENCHMARK(BM_ClassifyBases)->DenseRange(0, 2)->UseRealTime();

void BM_PackCodes(benchmark::State& state) {
  const auto kernels = AvailableEncodeKernels();
  const auto& kernel = kernels[static_cast<size_t>(state.range(0))];
  if (!kernel.supported) {
    state.SkipWithError("kernel unsupported on this host");
    return;
  }
  Rng rng(12);
  std::vector<uint8_t> codes(1 << 20);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.Next() & 3);
  std::vector<uint8_t> packed(codes.size() / 4 + 1);
  for (auto _ : state) {
    kernel.pack(codes.data(), codes.size(), packed.data());
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(codes.size()));
  state.SetLabel(kernel.name);
}
BENCHMARK(BM_PackCodes)->DenseRange(0, 2)->UseRealTime();

// Arg(0) = log2(buffer size), Arg(1) = 1 to pin the scalar table path.
void BM_Crc32(benchmark::State& state) {
  Rng rng(13);
  std::vector<uint8_t> buf(1ULL << state.range(0));
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  std::unique_ptr<ScopedForceScalar> forced;
  if (state.range(1) != 0) forced = std::make_unique<ScopedForceScalar>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
  state.SetLabel(state.range(1) != 0 ? "table" : "dispatched");
}
BENCHMARK(BM_Crc32)->ArgsProduct({{16, 22}, {0, 1}})->UseRealTime();

// ---------------------------------------------------------------------------
// Serial vs sharded (k+1)-mer counting on HC-2-sim (paper config: k = 31,
// theta = 2). Throughput is reported as bytes/second of read bases scanned;
// compare BM_CountEdgeMersSerial against BM_CountEdgeMersSharded/<threads>.
// ---------------------------------------------------------------------------

const std::vector<Read>& Hc2Reads() {
  static const Dataset dataset = MakeDataset(DatasetId::kHc2);
  return dataset.reads;
}

KmerCountConfig Hc2CountConfig() {
  KmerCountConfig config;
  config.mer_length = 32;  // k = 31 edge mers
  config.num_workers = 16;
  config.coverage_threshold = 2;
  return config;
}

void BM_CountEdgeMersSerial(benchmark::State& state) {
  const std::vector<Read>& reads = Hc2Reads();
  const KmerCountConfig config = Hc2CountConfig();
  uint64_t bases = 0;
  for (auto _ : state) {
    KmerCountStats stats;
    MerCounts counts = CountCanonicalMersSerial(reads, config, &stats);
    benchmark::DoNotOptimize(counts);
    bases = stats.total_bases;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bases));
}
BENCHMARK(BM_CountEdgeMersSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

// Arg is the thread count.
void BM_CountEdgeMersSharded(benchmark::State& state) {
  const std::vector<Read>& reads = Hc2Reads();
  KmerCountConfig config = Hc2CountConfig();
  config.num_threads = static_cast<unsigned>(state.range(0));
  uint64_t bases = 0;
  double bytes_per_window = 0;
  for (auto _ : state) {
    KmerCountStats stats;
    MerCounts counts = CountCanonicalMers(reads, config, &stats);
    benchmark::DoNotOptimize(counts);
    bases = stats.total_bases;
    bytes_per_window = stats.total_windows == 0
                           ? 0
                           : static_cast<double>(stats.shuffled_bytes) /
                                 static_cast<double>(stats.total_windows);
  }
  state.counters["shuffle_B_per_window"] = bytes_per_window;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bases));
}
BENCHMARK(BM_CountEdgeMersSharded)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Streaming ingestion (CounterSession) from one caller in 1024-read
// batches — the batch counter feeds the same session from a thread pool,
// so compare against BM_CountEdgeMersSharded to price single-caller
// scanning and the queued-byte bound. Arg is the bound (0 = default 32 MB).
void BM_CountEdgeMersStream(benchmark::State& state) {
  const std::vector<Read>& reads = Hc2Reads();
  KmerCountConfig config = Hc2CountConfig();
  config.num_threads = 4;
  const uint64_t bound = static_cast<uint64_t>(state.range(0));
  uint64_t bases = 0;
  for (auto _ : state) {
    CounterSession session(config, bound);
    constexpr size_t kBatch = 1024;
    for (size_t begin = 0; begin < reads.size(); begin += kBatch) {
      session.AddBatch(reads.data() + begin,
                       std::min(kBatch, reads.size() - begin));
    }
    KmerCountStats stats;
    MerCounts counts = session.Finish(&stats);
    benchmark::DoNotOptimize(counts);
    bases = stats.total_bases;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bases));
}
BENCHMARK(BM_CountEdgeMersStream)
    ->Arg(0)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Distributed counting against an in-process worker fleet on unix-domain
// sockets (the framing, flow control and result collection are the real
// wire path; only the process boundary is elided). Args = {worker count,
// inject failure}; with injection, worker 0 drops its connection on its
// 5th frame every iteration, so the runs price failover — journal replay
// onto the survivor — against the clean {2, 0} baseline.
void BM_CountEdgeMersDistributed(benchmark::State& state) {
  const std::vector<Read>& reads = Hc2Reads();
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  const bool inject = state.range(1) != 0;
  std::string dir = (std::filesystem::temp_directory_path() /
                     "ppa-bench-net-XXXXXX").string();
  if (mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  std::vector<std::unique_ptr<net::ShardWorkerServer>> servers;
  std::string endpoints;
  for (uint32_t w = 0; w < workers; ++w) {
    net::WorkerOptions options;
    options.listen = "unix:" + dir + "/w" + std::to_string(w) + ".sock";
    if (inject && w == 0) {
      std::string plan_error;
      net::FaultPlan::Parse("drop-conn@frame=5", &options.fault_plan,
                            &plan_error);
    }
    servers.push_back(std::make_unique<net::ShardWorkerServer>(options));
    std::string error;
    if (!servers.back()->Start(&error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    if (!endpoints.empty()) endpoints += ',';
    endpoints += options.listen;
  }
  KmerCountConfig config = Hc2CountConfig();
  config.num_threads = 4;
  uint64_t bases = 0, net_bytes = 0, replayed = 0, reassigned = 0;
  for (auto _ : state) {
    NetConfig net_config;
    net_config.endpoints = endpoints;
    std::unique_ptr<NetContext> context = MakeNetContext(net_config);
    config.net = context.get();
    CounterSession session(config);
    constexpr size_t kBatch = 1024;
    for (size_t begin = 0; begin < reads.size(); begin += kBatch) {
      session.AddBatch(reads.data() + begin,
                       std::min(kBatch, reads.size() - begin));
    }
    KmerCountStats stats;
    MerCounts counts = session.Finish(&stats);
    benchmark::DoNotOptimize(counts);
    bases = stats.total_bases;
    net_bytes = stats.net_sent_bytes;
    replayed = stats.chunks_replayed;
    reassigned = stats.shards_reassigned;
    config.net = nullptr;
  }
  state.counters["net_sent_bytes"] = static_cast<double>(net_bytes);
  if (inject) {
    state.counters["chunks_replayed"] = static_cast<double>(replayed);
    state.counters["shards_reassigned"] = static_cast<double>(reassigned);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bases));
  for (auto& server : servers) server->Stop();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CountEdgeMersDistributed)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Counter comparisons on HC-2-sim, measured once per process and emitted as
// BENCH_kmer.json.
// ---------------------------------------------------------------------------

/// One distributed run against an in-process 2-worker fleet, optionally
/// with worker 0 scripted to drop its connection mid-stream. The
/// onefail/nofail wall-clock ratio is the measured cost of a recovery
/// (journal replay onto the survivor) per run.
struct DistributedMeasurement {
  double wall_seconds = 0;
  KmerCountStats stats;
  size_t trace_processes = 0;  // worker traces pulled (arm_trace runs)
  bool ok = false;
};

DistributedMeasurement MeasureDistributed(uint32_t workers, bool inject,
                                          unsigned threads,
                                          bool arm_trace = false) {
  const std::vector<Read>& reads = Hc2Reads();
  DistributedMeasurement m;
  std::string dir = (std::filesystem::temp_directory_path() /
                     "ppa-bench-fault-XXXXXX").string();
  if (mkdtemp(dir.data()) == nullptr) return m;
  std::vector<std::unique_ptr<net::ShardWorkerServer>> servers;
  std::string endpoints;
  for (uint32_t w = 0; w < workers; ++w) {
    net::WorkerOptions options;
    options.listen = "unix:" + dir + "/w" + std::to_string(w) + ".sock";
    if (inject && w == 0) {
      std::string plan_error;
      net::FaultPlan::Parse("drop-conn@frame=5", &options.fault_plan,
                            &plan_error);
    }
    servers.push_back(std::make_unique<net::ShardWorkerServer>(options));
    std::string error;
    if (!servers.back()->Start(&error)) return m;
    if (!endpoints.empty()) endpoints += ',';
    endpoints += options.listen;
  }
  KmerCountConfig config = Hc2CountConfig();
  config.num_threads = threads;
  NetConfig net_config;
  net_config.endpoints = endpoints;
  net_config.arm_trace = arm_trace;
  if (arm_trace) obs::StartTrace();
  Timer timer;
  std::unique_ptr<NetContext> context = MakeNetContext(net_config);
  config.net = context.get();
  CounterSession session(config);
  constexpr size_t kBatch = 1024;
  for (size_t begin = 0; begin < reads.size(); begin += kBatch) {
    session.AddBatch(reads.data() + begin,
                     std::min(kBatch, reads.size() - begin));
  }
  session.Finish(&m.stats);
  // The measured window is the counting work; the trace pull and fleet
  // teardown stay outside it so armed and off runs compare like for like.
  m.wall_seconds = timer.Seconds();
  if (arm_trace) {
    m.trace_processes = context->CollectTraces().size();
    obs::StopTrace();
  }
  context.reset();
  m.ok = true;
  for (auto& server : servers) server->Stop();
  std::filesystem::remove_all(dir);
  return m;
}

/// Pins the calling thread to the CPU it is running on while in scope;
/// threads it starts meanwhile inherit the pin. Restores the old affinity
/// on exit. On a shared multi-core host, where the scheduler places a
/// distributed run's scanning thread beside the fleet's threads splits
/// runs into two speed modes about 20% apart; on one CPU a run costs its
/// CPU work.
class ScopedPinToOneCpu {
 public:
  ScopedPinToOneCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(old_), &old_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedPinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(old_), &old_);
  }
  ScopedPinToOneCpu(const ScopedPinToOneCpu&) = delete;
  ScopedPinToOneCpu& operator=(const ScopedPinToOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t old_{};
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// SIMD dispatch measurements for BENCH_kmer.json: per-kernel encode
// throughput, hardware vs table CRC-32, and the scalar-vs-SIMD counter grid
// across thread counts. All once per process —
// CI's bench-smoke runs with --benchmark_filter='^$' and still gets these.
// ---------------------------------------------------------------------------

/// Wall-clock GB/s of fn() processing `bytes` per call, repeated until the
/// sample is at least ~50 ms so fast kernels aren't timer-noise.
template <typename Fn>
double MeasureGbps(uint64_t bytes, Fn&& fn) {
  uint64_t reps = 1;
  for (;;) {
    Timer timer;
    for (uint64_t r = 0; r < reps; ++r) fn();
    const double s = timer.Seconds();
    if (s >= 0.05 || reps > (1ULL << 30)) {
      return s == 0 ? 0
                    : static_cast<double>(bytes) * static_cast<double>(reps) /
                          s / 1e9;
    }
    reps *= 4;
  }
}

struct SimdKernelRow {
  const char* name;
  double classify_gbps = 0;
  double pack_gbps = 0;
};

struct CrcRow {
  size_t size;
  double hw_gbps = 0;
  double table_gbps = 0;
};

struct DispatchGridRow {
  unsigned threads;
  double scalar_seconds = 0;
  double simd_seconds = 0;
};

double CountWallSeconds(unsigned threads) {
  const std::vector<Read>& reads = Hc2Reads();
  KmerCountConfig config = Hc2CountConfig();
  config.num_threads = threads;
  Timer timer;
  KmerCountStats stats;
  CountCanonicalMers(reads, config, &stats);
  return timer.Seconds();
}

/// Min-of-3 wall clock per dispatch mode, with the modes interleaved so a
/// frequency ramp or background load skews both, not just whichever ran
/// second. Min (not mean) because a shared CI box only adds noise upward.
DispatchGridRow MeasureDispatchRow(unsigned threads) {
  DispatchGridRow row{threads};
  row.scalar_seconds = 1e30;
  row.simd_seconds = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    {
      ScopedForceScalar forced;
      row.scalar_seconds = std::min(row.scalar_seconds,
                                    CountWallSeconds(threads));
    }
    row.simd_seconds = std::min(row.simd_seconds, CountWallSeconds(threads));
  }
  return row;
}

/// Measures everything SIMD-shaped and returns the JSON members (indented
/// for the top-level BENCH_kmer.json object, trailing comma included).
std::string RunSimdComparison() {
  bench::PrintHeader(
      "bench_micro_kmer: SIMD dispatch (encode / CRC-32 / counter grid)");
  std::printf("active simd_level = %s%s\n",
              SimdLevelName(ActiveSimdLevel()),
              SimdForcedScalar() ? " (PPA_FORCE_SCALAR)" : "");

  // Per-kernel encode throughput on a 1 MiB buffer.
  const std::string bases = RandomBasesBuffer(1 << 20, 21);
  Rng rng(22);
  std::vector<uint8_t> codes(bases.size());
  std::vector<uint8_t> scratch(bases.size());
  std::vector<uint8_t> packed(bases.size() / 4 + 1);
  ClassifyBasesScalar(bases.data(), bases.size(), codes.data());
  std::vector<SimdKernelRow> kernels;
  for (const EncodeKernel& kernel : AvailableEncodeKernels()) {
    if (!kernel.supported) continue;
    SimdKernelRow row{kernel.name};
    row.classify_gbps = MeasureGbps(bases.size(), [&] {
      kernel.classify(bases.data(), bases.size(), scratch.data());
    });
    row.pack_gbps = MeasureGbps(codes.size(), [&] {
      kernel.pack(codes.data(), codes.size(), packed.data());
    });
    kernels.push_back(row);
    std::printf("encode kernel %-8s classify %7.2f GB/s  pack %7.2f GB/s\n",
                row.name, row.classify_gbps, row.pack_gbps);
  }

  // CRC-32: dispatched vs table on the spill/wire-sized buffers.
  std::vector<CrcRow> crc_rows;
  for (size_t size : {size_t{64} << 10, size_t{4} << 20}) {
    std::vector<uint8_t> buf(size);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    CrcRow row{size};
    row.hw_gbps =
        MeasureGbps(size, [&] { Crc32(buf.data(), buf.size()); });
    {
      ScopedForceScalar forced;
      row.table_gbps =
          MeasureGbps(size, [&] { Crc32(buf.data(), buf.size()); });
    }
    crc_rows.push_back(row);
    std::printf(
        "crc32 %7zu B: dispatched %6.2f GB/s, table %6.2f GB/s (%.1fx)\n",
        size, row.hw_gbps, row.table_gbps,
        row.table_gbps == 0 ? 0 : row.hw_gbps / row.table_gbps);
  }

  // Scalar-vs-SIMD counter wall clock across thread counts (full sharded
  // batch count, superkmer encoding).
  std::vector<DispatchGridRow> grid;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const DispatchGridRow row = MeasureDispatchRow(threads);
    grid.push_back(row);
    std::printf("count threads=%u scalar %.3fs  simd %.3fs  (%.2fx)\n",
                threads, row.scalar_seconds, row.simd_seconds,
                row.simd_seconds == 0
                    ? 0
                    : row.scalar_seconds / row.simd_seconds);
  }

  std::string json = "  \"simd\": {\n    \"kernels\": {\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    json += "      \"" + std::string(kernels[i].name) +
            "\": {\"classify_gbps\": " + std::to_string(kernels[i].classify_gbps) +
            ", \"pack_gbps\": " + std::to_string(kernels[i].pack_gbps) + "}" +
            (i + 1 < kernels.size() ? ",\n" : "\n");
  }
  json += "    },\n    \"crc32\": {\n";
  for (size_t i = 0; i < crc_rows.size(); ++i) {
    json += "      \"" + std::to_string(crc_rows[i].size) +
            "\": {\"dispatched_gbps\": " + std::to_string(crc_rows[i].hw_gbps) +
            ", \"table_gbps\": " + std::to_string(crc_rows[i].table_gbps) +
            "}" + (i + 1 < crc_rows.size() ? ",\n" : "\n");
  }
  json += "    },\n    \"count_grid\": {\n";
  for (size_t i = 0; i < grid.size(); ++i) {
    json += "      \"" + std::to_string(grid[i].threads) +
            "\": {\"scalar_seconds\": " + std::to_string(grid[i].scalar_seconds) +
            ", \"simd_seconds\": " + std::to_string(grid[i].simd_seconds) +
            "}" + (i + 1 < grid.size() ? ",\n" : "\n");
  }
  json += "    }\n  },\n";
  return json;
}

/// The counter's distributed comparisons (after the SIMD one): prints a
/// line per comparison and writes BENCH_kmer.json.
void RunCounterComparison() {
  unsigned threads = bench::BenchThreads();
  if (threads == 0) threads = std::thread::hardware_concurrency();
  const std::string simd_json = RunSimdComparison();
  bench::PrintHeader(
      "bench_micro_kmer: counter distributed, HC-2-sim, k=31 edge mers");

  // Recovery overhead: a 2-worker distributed run, clean vs with worker 0
  // scripted to drop its connection mid-stream (its shards fail over to
  // the survivor and replay from the coordinator's chunk journal).
  const DistributedMeasurement dist_nofail =
      MeasureDistributed(2, /*inject=*/false, threads);
  const DistributedMeasurement dist_onefail =
      MeasureDistributed(2, /*inject=*/true, threads);
  const double recovery_overhead =
      dist_nofail.wall_seconds == 0
          ? 0
          : dist_onefail.wall_seconds / dist_nofail.wall_seconds;
  const bool dist_identical =
      dist_nofail.ok && dist_onefail.ok &&
      dist_nofail.stats.surviving_mers == dist_onefail.stats.surviving_mers;
  std::printf(
      "distributed 2-worker onefail/nofail = %.3fs/%.3fs = %.2fx recovery "
      "overhead, %llu chunks replayed onto %llu reassigned shards, "
      "surviving_mers %s\n",
      dist_onefail.wall_seconds, dist_nofail.wall_seconds, recovery_overhead,
      static_cast<unsigned long long>(dist_onefail.stats.chunks_replayed),
      static_cast<unsigned long long>(dist_onefail.stats.shards_reassigned),
      dist_identical ? "identical" : "MISMATCH");

  // Tracing overhead: the same clean 2-worker run with span tracing armed
  // fleet-wide (the --trace-out path) vs off, gated on the median of
  // kTracePairs per-pair armed/off ratios (the CI gate holds it at <= 2%).
  // One run is tens of milliseconds, too short to tell a 2% cost from
  // host noise, so each side of a pair sums kTraceRuns runs, interleaved
  // off, armed, armed, off, ... so that drift within the pair skews both
  // sides alike. Every run's threads share one CPU (ScopedPinToOneCpu), so
  // span recording is priced as CPU work, not by where the scheduler put
  // the fleet's threads.
  constexpr int kTracePairs = 15;
  constexpr int kTraceRuns = 4;
  std::vector<double> off_seconds, armed_seconds, ratios;
  size_t trace_processes = SIZE_MAX;
  bool one_cpu = true;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    // Pinned per pair, so a CPU with a busy neighbour biases few pairs.
    const ScopedPinToOneCpu pin;
    one_cpu = one_cpu && pin.pinned();
    double off_sum = 0, armed_sum = 0;
    bool ok = true;
    for (int run = 0; run < 2 * kTraceRuns; ++run) {
      const bool arm = run % 4 == 1 || run % 4 == 2;
      const DistributedMeasurement m =
          MeasureDistributed(2, /*inject=*/false, threads, arm);
      ok = ok && m.ok;
      (arm ? armed_sum : off_sum) += m.wall_seconds;
      if (arm) {
        trace_processes = std::min(trace_processes, m.trace_processes);
      }
    }
    if (!ok || off_sum == 0) {
      trace_processes = 0;  // fails the gate's trace_processes check
      continue;
    }
    off_seconds.push_back(off_sum / kTraceRuns);
    armed_seconds.push_back(armed_sum / kTraceRuns);
    ratios.push_back(armed_sum / off_sum);
  }
  if (ratios.empty()) trace_processes = 0;
  auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  };
  const double trace_off_seconds = median(off_seconds);
  const double trace_armed_seconds = median(armed_seconds);
  const double trace_overhead = median(ratios);
  std::printf(
      "distributed 2-worker tracing armed/off, median of %zu pairs x %d "
      "runs%s = %.3fs/%.3fs, median ratio %.3fx overhead, %zu worker "
      "traces pulled\n",
      ratios.size(), kTraceRuns, one_cpu ? " on one CPU" : "",
      trace_armed_seconds, trace_off_seconds, trace_overhead,
      trace_processes);

  const char* json_env = std::getenv("PPA_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_kmer.json";
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"bench_micro_kmer.counter\",\n"
      << "  \"dataset\": \"HC-2-sim\",\n"
      << "  \"dataset_scale\": " << DatasetScaleFromEnv() << ",\n"
      << "  \"mer_length\": 32,\n"
      << "  \"minimizer_len\": " << dist_nofail.stats.minimizer_len << ",\n"
      << bench::JsonProvenanceFields()
      << "  \"threads\": " << threads << ",\n"
      << simd_json
      << "  \"distributed\": {\n"
      << "    \"workers\": 2,\n"
      << "    \"nofail_seconds\": " << dist_nofail.wall_seconds << ",\n"
      << "    \"onefail_seconds\": " << dist_onefail.wall_seconds << ",\n"
      << "    \"recovery_overhead\": " << recovery_overhead << ",\n"
      << "    \"worker_failures\": " << dist_onefail.stats.worker_failures
      << ",\n"
      << "    \"shards_reassigned\": " << dist_onefail.stats.shards_reassigned
      << ",\n"
      << "    \"chunks_replayed\": " << dist_onefail.stats.chunks_replayed
      << ",\n"
      << "    \"surviving_mers_identical\": "
      << (dist_identical ? "true" : "false") << ",\n"
      << "    \"trace_off_seconds\": " << trace_off_seconds << ",\n"
      << "    \"trace_armed_seconds\": " << trace_armed_seconds << ",\n"
      << "    \"trace_one_cpu\": " << (one_cpu ? "true" : "false") << ",\n"
      << "    \"trace_overhead\": " << trace_overhead << ",\n"
      << "    \"trace_processes\": " << trace_processes << "\n"
      << "  }\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace ppa

int main(int argc, char** argv) {
  ppa::RunCounterComparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
