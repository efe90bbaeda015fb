// Micro-benchmarks (google-benchmark) for the mini-MapReduce shuffle
// engine's hash group-by, on the two workload shapes the pipeline actually
// runs through it —
//
//   * DBG construction phase (ii): small keys (vertex codes), 8-byte
//     adjacency entries (one per edge endpoint), ~2 pairs per group,
//     measured on real edge mers counted from the simulated HC-2 dataset;
//   * contig merging: few keys (labels), fat values (node payloads), long
//     groups — the shape where every extra move of a value shows.
//
// The custom main() additionally measures both workloads once per process
// — plus the external-spill overhead (spill/spill.h: a budget below one
// chunk, so every sealed chunk goes through disk, against no budget) on
// the adjacency workload — and writes BENCH_shuffle.json
// (override the path with PPA_BENCH_JSON), mirroring bench_micro_kmer's
// BENCH_kmer.json so the shuffle engine's perf trajectory accumulates in
// machine-readable form. CI runs just that part with
// --benchmark_filter='^NONE$'.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "dbg/adjacency.h"
#include "dbg/kmer_counter.h"
#include "dna/kmer.h"
#include "pregel/mapreduce.h"
#include "sim/datasets.h"
#include "spill/spill.h"
#include "util/random.h"
#include "util/timer.h"

namespace ppa {
namespace {

constexpr uint32_t kWorkers = 16;

// ---------------------------------------------------------------------------
// Phase (ii) adjacency workload: edge mers -> per-vertex adjacency groups.
// ---------------------------------------------------------------------------

/// Edge-mer survivors of HC-2-sim counting (k = 31, theta = 2), the real
/// input of DBG construction phase (ii).
const Partitioned<std::pair<uint64_t, uint32_t>>& Hc2EdgeMers() {
  static const Partitioned<std::pair<uint64_t, uint32_t>> mers = [] {
    KmerCountConfig config;
    config.mer_length = 32;
    config.num_workers = kWorkers;
    config.coverage_threshold = 2;
    return CountCanonicalMers(MakeDataset(DatasetId::kHc2).reads, config);
  }();
  return mers;
}

/// One adjacency-workload job run in phase (ii)'s shape: one AdjEntry per
/// edge endpoint; the reducer folds a vertex's entries into its Fig. 8a
/// bitmap. Returns each partition's (vertex code, bitmap) outputs. Shared
/// by the registered benchmarks and the BENCH_shuffle.json measurement.
Partitioned<std::pair<uint64_t, uint32_t>> RunAdjacencyJob(SpillContext* spill,
                                                           RunStats* stats) {
  const auto& edge_mers = Hc2EdgeMers();
  const int k = 31;
  auto map_fn = [k](const std::pair<uint64_t, uint32_t>& edge_mer,
                    auto& emitter) {
    Kmer mer(edge_mer.first, k + 1);
    EdgeEndpoints e = MakeEdge(mer);
    emitter.Emit(e.prefix_vertex.code(),
                 AdjEntry{static_cast<uint32_t>(BitmapBit(e.prefix_item)),
                          edge_mer.second});
    emitter.Emit(e.suffix_vertex.code(),
                 AdjEntry{static_cast<uint32_t>(BitmapBit(e.suffix_item)),
                          edge_mer.second});
  };
  auto reduce_fn = [](const uint64_t& vertex_code, std::span<AdjEntry> group,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t bitmap = 0;
    for (const AdjEntry& entry : group) bitmap |= 1u << entry.bit;
    out.emplace_back(vertex_code, bitmap);
  };

  MapReduceConfig config;
  config.num_workers = kWorkers;
  config.num_threads = 1;  // isolate group-by cost from parallelism
  config.job_name = "bench-adjacency";
  config.spill = spill;
  return RunMapReduce<std::pair<uint64_t, uint32_t>, uint64_t, AdjEntry,
                      std::pair<uint64_t, uint32_t>>(edge_mers, map_fn,
                                                     reduce_fn, config, stats);
}

void BM_AdjacencyShuffleHash(benchmark::State& state) {
  uint64_t pairs = 0;
  for (auto _ : state) {
    RunStats stats;
    benchmark::DoNotOptimize(RunAdjacencyJob(nullptr, &stats));
    pairs = stats.pairs_shuffled;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs));
}
BENCHMARK(BM_AdjacencyShuffleHash)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Merge workload: label -> fat node payloads, long groups.
// ---------------------------------------------------------------------------

/// Stand-in for the AsmNode payloads contig merging ships: big enough that
/// every extra move in the group-by is visible.
struct FatNode {
  uint64_t id = 0;
  uint8_t payload[120] = {};
};

constexpr size_t kMergeNodes = 200000;

/// One merge-workload job run (shared with the JSON measurement): 200k
/// nodes in 10k label groups of ~20 (typical unambiguous-path lengths),
/// scattered round-robin like a real partitioned graph.
const Partitioned<FatNode>& MergeInput() {
  static const Partitioned<FatNode> input = [] {
    Rng rng(23);
    std::vector<FatNode> nodes(kMergeNodes);
    for (size_t i = 0; i < kMergeNodes; ++i) nodes[i].id = rng.Next();
    return Scatter(nodes, kWorkers);
  }();
  return input;
}

Partitioned<std::pair<uint64_t, uint64_t>> RunMergeJob(SpillContext* spill,
                                                        RunStats* stats) {
  constexpr uint64_t kLabels = 10000;
  auto map_fn = [](const FatNode& node, auto& emitter) {
    emitter.Emit(node.id % kLabels, node);
  };
  auto reduce_fn = [](const uint64_t& label, std::span<FatNode> group,
                      std::vector<std::pair<uint64_t, uint64_t>>& out) {
    uint64_t min_id = UINT64_MAX;
    for (const FatNode& n : group) min_id = std::min(min_id, n.id);
    out.emplace_back(label, min_id);
  };

  MapReduceConfig config;
  config.num_workers = kWorkers;
  config.num_threads = 1;
  config.job_name = "bench-merge";
  config.spill = spill;
  return RunMapReduce<FatNode, uint64_t, FatNode,
                      std::pair<uint64_t, uint64_t>>(MergeInput(), map_fn,
                                                     reduce_fn, config, stats);
}

void BM_MergeShuffleHash(benchmark::State& state) {
  for (auto _ : state) {
    RunStats stats;
    benchmark::DoNotOptimize(RunMergeJob(nullptr, &stats));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMergeNodes));
}
BENCHMARK(BM_MergeShuffleHash)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Once-per-process measurement emitted as BENCH_shuffle.json (mirrors
// BENCH_kmer.json): both workloads, plus the external-spill overhead
// (always vs never) on the adjacency workload.
// ---------------------------------------------------------------------------

template <typename Result>
struct JobMeasurement {
  double seconds = 0;
  Result result;  // the job's partitioned reduce outputs
  RunStats stats;

  size_t outputs() const {
    size_t n = 0;
    for (const auto& part : result) n += part.size();
    return n;
  }
};

template <typename JobFn>
auto Measure(JobFn&& job) {
  JobMeasurement<decltype(job(nullptr))> m;
  Timer timer;
  m.result = job(&m.stats);
  m.seconds = timer.Seconds();
  return m;
}

void RunShuffleComparison() {
  bench::PrintHeader(
      "bench_micro_shuffle: hash group-by (+ spill overhead), "
      "HC-2-sim adjacency + fat-value merge workloads");

  // Build both inputs first, so no measurement pays for them.
  Hc2EdgeMers();
  MergeInput();
  const auto adj_hash =
      Measure([](RunStats* s) { return RunAdjacencyJob(nullptr, s); });
  const auto merge_hash =
      Measure([](RunStats* s) { return RunMergeJob(nullptr, s); });
  // Spill overhead on the adjacency workload: same job under a 1-byte
  // budget, which pins nothing, so every sealed chunk goes through disk.
  std::unique_ptr<SpillContext> spill = MakeSpillContext("", 1);
  const auto adj_spill =
      Measure([&](RunStats* s) { return RunAdjacencyJob(spill.get(), s); });
  // Partition for partition, in reduce order: a readback that drops,
  // repeats, misorders or corrupts a value shows here.
  const bool outputs_identical = adj_hash.result == adj_spill.result;

  std::printf("%-24s %10s %12s %12s %12s\n", "case", "seconds", "pairs",
              "spilled_B", "readback_B");
  const auto row = [](const char* name, const auto& m) {
    std::printf("%-24s %10.3f %12llu %12llu %12llu\n", name, m.seconds,
                static_cast<unsigned long long>(m.stats.pairs_shuffled),
                static_cast<unsigned long long>(m.stats.spill.spilled_bytes),
                static_cast<unsigned long long>(m.stats.spill.readback_bytes));
  };
  row("adjacency/hash", adj_hash);
  row("adjacency/hash+spill", adj_spill);
  row("merge/hash", merge_hash);

  const char* json_env = std::getenv("PPA_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_shuffle.json";
  const auto obj = [](std::ofstream& out, const char* key, const auto& m,
                      bool last = false) {
    out << "    \"" << key << "\": {\"seconds\": " << m.seconds
        << ", \"outputs\": " << m.outputs()
        << ", \"pairs_shuffled\": " << m.stats.pairs_shuffled
        << ", \"spilled_bytes\": " << m.stats.spill.spilled_bytes
        << ", \"readback_bytes\": " << m.stats.spill.readback_bytes << "}"
        << (last ? "\n" : ",\n");
  };
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"bench_micro_shuffle.group_by\",\n"
      << "  \"dataset\": \"HC-2-sim\",\n"
      << "  \"dataset_scale\": " << DatasetScaleFromEnv() << ",\n"
      << bench::JsonProvenanceFields()
      << "  \"adjacency\": {\n";
  obj(out, "hash", adj_hash);
  obj(out, "hash_spill", adj_spill, /*last=*/true);
  out << "  },\n"
      << "  \"merge\": {\n";
  obj(out, "hash", merge_hash, /*last=*/true);
  out << "  },\n"
      << "  \"spill_over_in_memory_adjacency\": "
      << (adj_hash.seconds == 0 ? 0 : adj_spill.seconds / adj_hash.seconds)
      << ",\n"
      << "  \"outputs_identical\": " << (outputs_identical ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace ppa

int main(int argc, char** argv) {
  ppa::RunShuffleComparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
