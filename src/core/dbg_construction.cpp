#include "core/dbg_construction.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "dbg/adjacency.h"
#include "dbg/kmer_counter.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "pregel/mapreduce.h"
#include "util/hash.h"

namespace ppa {

DbgResult BuildDbg(ReadStream& reads, const AssemblerOptions& options,
                   PipelineStats* stats) {
  options.Validate();

  // ---- Phase (i): count while scanning under a bounded queue, then apply
  // the coverage filter (count >= theta, so theta = 1 keeps every mer).
  // The ReadStream's reader thread fills batches; scanner workers feed them
  // to the CounterSession, whose shard counter threads drain concurrently.
  // The code stream is never resident — the session blocks the scanners
  // (and, transitively, the reader) when they outrun the counters.
  // Survivors come out routed by PartitionOf(code, W), which phase (ii)'s
  // shuffle relies on.
  KmerCountConfig count_config;
  count_config.mer_length = options.k + 1;
  count_config.num_workers = options.num_workers;
  count_config.num_threads = options.num_threads;
  count_config.num_shards = options.kmer_shards;
  count_config.coverage_threshold = options.coverage_threshold;
  count_config.spill = options.spill_context;
  count_config.net = options.net_context;
  CounterSession session(count_config);
  reads.ForEachBatch(ThreadPool::Resolve(options.num_threads),
                     [&](ReadBatch& batch) { session.AddBatch(batch.reads); });
  KmerCountStats count_stats;
  Partitioned<std::pair<uint64_t, uint32_t>> edge_mers =
      session.Finish(&count_stats);

  // ---- Phase (ii): k-mer vertices with compressed adjacency from the
  // surviving edge mers.
  const uint32_t W = options.num_workers;
  DbgResult result(W);
  result.distinct_edge_mers = count_stats.distinct_mers;
  result.surviving_edge_mers = count_stats.surviving_mers;
  if (stats != nullptr) {
    stats->Add(MerCountRunStats(count_stats, W, "dbg-construction-phase1"));
  }
  result.count_stats = std::move(count_stats);
  RunStats phase2;
  const MapReduceConfig mr_config =
      MakeMrConfig(options, "dbg-construction-phase2");

  // Each surviving edge mer gives its canonical prefix vertex an out-item
  // and its canonical suffix vertex an in-item. No two edge mers give one
  // vertex the same bitmap bit, so every entry is its own edge and nothing
  // is combined or merged.
  const int k = options.k;
  auto map_fn = [k](const std::pair<uint64_t, uint32_t>& edge_mer,
                    auto& emitter) {
    Kmer mer(edge_mer.first, k + 1);
    EdgeEndpoints e = MakeEdge(mer);
    const uint32_t coverage = edge_mer.second;
    emitter.Emit(e.prefix_vertex.code(),
                 AdjEntry{static_cast<uint32_t>(BitmapBit(e.prefix_item)),
                          coverage});
    emitter.Emit(e.suffix_vertex.code(),
                 AdjEntry{static_cast<uint32_t>(BitmapBit(e.suffix_item)),
                          coverage});
  };

  auto reduce_fn = [k](const uint64_t& vertex_code, std::span<AdjEntry> group,
                       std::vector<AsmNode>& out) {
    // Fig. 8a's bit order is the vertex's edge order.
    std::sort(group.begin(), group.end(),
              [](const AdjEntry& a, const AdjEntry& b) {
                return a.bit < b.bit;
              });
    AsmNode node;
    node.id = vertex_code;
    node.kind = NodeKind::kKmer;
    node.k = static_cast<uint8_t>(k);
    // Unpack each bitmap bit into the bidirected edge view. A k-mer node's
    // own coverage is the minimum incident edge coverage (used when a
    // single-vertex contig is formed).
    Kmer vertex(vertex_code, k);
    uint32_t min_cov = UINT32_MAX;
    node.edges.reserve(group.size());
    for (const AdjEntry& entry : group) {
      const AdjItem item = ItemFromBitmapBit(static_cast<int>(entry.bit));
      node.edges.push_back(BiEdge{NeighborKmer(vertex, item).code(),
                                  item.SelfEnd(), item.OtherEnd(),
                                  entry.coverage});
      min_cov = std::min(min_cov, entry.coverage);
    }
    node.coverage = (min_cov == UINT32_MAX) ? 1 : min_cov;
    out.push_back(std::move(node));
  };

  Partitioned<AsmNode> nodes =
      RunMapReduce<std::pair<uint64_t, uint32_t>, uint64_t, AdjEntry,
                   AsmNode>(edge_mers, map_fn, reduce_fn, mr_config, &phase2);
  if (stats != nullptr) stats->Add(phase2);

  // The shuffle routes a uint64_t key as PartitionOf routes an id, so
  // reduce partition d is graph partition d as it stands.
  for (uint32_t d = 0; d < W; ++d) {
    auto& part = result.graph.partition(d);
    part.vertices = std::move(nodes[d]);
    part.Reindex();
  }
  return result;
}

DbgResult BuildDbg(const std::vector<Read>& reads,
                   const AssemblerOptions& options, PipelineStats* stats) {
  ReadStream stream(std::make_unique<VectorReadSource>(reads));
  return BuildDbg(stream, options, stats);
}

}  // namespace ppa
