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
#include "util/logging.h"

namespace ppa {

namespace {

/// Combinable partial adjacency of one vertex: (bitmap bit, coverage)
/// entries from the (k+1)-mers one source partition holds. A vertex has at
/// most 8 incident canonical edge mers, each contributing at most 2 items
/// (both endpoints, for self-loop mers), so 16 inline slots always suffice
/// and the value ships without heap indirection. Entries are appended, not
/// pre-summed: PackedAdjacency::Build is the one place duplicate bits are
/// merged, so the combined path stays bit-identical to per-item shuffling.
// Arrays are zero-initialized (not just count-delimited) because the spill
// path serializes the full value representation: uninitialized slots would
// leak indeterminate bytes into spill files and make them nondeterministic.
struct AdjPartial {
  uint8_t count = 0;
  uint8_t bits[16] = {};
  uint32_t covs[16] = {};

  static AdjPartial Of(int bit, uint32_t coverage) {
    AdjPartial p;
    p.count = 1;
    p.bits[0] = static_cast<uint8_t>(bit);
    p.covs[0] = coverage;
    return p;
  }

  void Append(const AdjPartial& other) {
    PPA_CHECK(count + other.count <= 16);
    for (uint8_t i = 0; i < other.count; ++i) {
      bits[count] = other.bits[i];
      covs[count] = other.covs[i];
      ++count;
    }
  }
};

}  // namespace

DbgResult BuildDbg(ReadStream& reads, const AssemblerOptions& options,
                   PipelineStats* stats) {
  options.Validate();

  // ---- Phase (i): count while scanning under a bounded queue, then apply
  // the coverage filter (count >= theta, so theta = 1 keeps every mer).
  // The ReadStream's reader thread fills batches; scanner workers feed them
  // to the CounterSession, whose shard counter threads drain concurrently.
  // The code stream is never resident — the session blocks the scanners
  // (and, transitively, the reader) when they outrun the counters.
  // Survivors come out routed by Mix64(code) % W, which phase (ii)'s
  // shuffle relies on.
  KmerCountConfig count_config;
  count_config.mer_length = options.k + 1;
  count_config.num_workers = options.num_workers;
  count_config.num_threads = options.num_threads;
  count_config.num_shards = options.kmer_shards;
  count_config.coverage_threshold = options.coverage_threshold;
  count_config.spill = options.spill_context;
  count_config.net = options.net_context;
  CounterSession session(count_config, options.kmer_queue_bytes);
  const unsigned scan_threads = options.num_threads == 0
                                    ? ThreadPool::DefaultThreads()
                                    : options.num_threads;
  reads.ForEachBatch(scan_threads,
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

  const int k = options.k;
  auto map_fn = [k](const std::pair<uint64_t, uint32_t>& edge_mer,
                    auto& emitter) {
    Kmer mer(edge_mer.first, k + 1);
    EdgeEndpoints e = MakeEdge(mer);
    emitter.Emit(e.prefix_vertex.code(),
                 AdjPartial::Of(BitmapBit(e.prefix_item), edge_mer.second));
    emitter.Emit(e.suffix_vertex.code(),
                 AdjPartial::Of(BitmapBit(e.suffix_item), edge_mer.second));
  };

  // Map-side combiner: union of the adjacency contributions a source holds
  // for one vertex, so the shuffle ships one pair per (source, vertex)
  // instead of one per incident edge mer.
  auto combine_fn = [](AdjPartial& acc, AdjPartial&& incoming) {
    acc.Append(incoming);
  };

  auto reduce_fn = [k](const uint64_t& vertex_code,
                       std::span<AdjPartial> group,
                       std::vector<AsmNode>& out) {
    std::vector<std::pair<int, uint32_t>> entries;
    for (const AdjPartial& p : group) {
      for (uint8_t i = 0; i < p.count; ++i) {
        entries.emplace_back(p.bits[i], p.covs[i]);
      }
    }
    PackedAdjacency packed = PackedAdjacency::Build(std::move(entries));

    AsmNode node;
    node.id = vertex_code;
    node.kind = NodeKind::kKmer;
    node.k = static_cast<uint8_t>(k);
    node.kmer_code = vertex_code;
    // Unpack Fig. 8a bitmap into the bidirected edge view. A k-mer node's
    // own coverage is the minimum incident edge coverage (used when a
    // single-vertex contig is formed).
    Kmer vertex(vertex_code, k);
    uint32_t min_cov = UINT32_MAX;
    packed.ForEach([&](const AdjItem& item, uint32_t cov) {
      BiEdge edge;
      edge.to = NeighborKmer(vertex, item).code();
      edge.my_end = item.SelfEnd();
      edge.to_end = item.OtherEnd();
      edge.coverage = cov;
      min_cov = std::min(min_cov, cov);
      node.edges.push_back(edge);
    });
    node.coverage = (min_cov == UINT32_MAX) ? 1 : min_cov;
    // Memory accounting for the compact-format ablation is tallied by the
    // caller from degree; store nothing extra here.
    out.push_back(std::move(node));
  };

  Partitioned<AsmNode> nodes =
      RunMapReduce<std::pair<uint64_t, uint32_t>, uint64_t, AdjPartial,
                   AsmNode>(edge_mers, map_fn, combine_fn, reduce_fn,
                            mr_config, &phase2);
  if (stats != nullptr) stats->Add(phase2);

  // MrKeyHash routes by Mix64(key) % W, which equals PartitionOf(id, W), so
  // partition d already holds exactly the vertices that hash there.
  for (uint32_t d = 0; d < W; ++d) {
    for (AsmNode& node : nodes[d]) {
      // Memory ablation bookkeeping: what the two formats would occupy.
      result.packed_adjacency_bytes += sizeof(uint32_t);
      for (const BiEdge& e : node.edges) {
        result.packed_adjacency_bytes += VarintLength(e.coverage);
        result.unpacked_adjacency_bytes += sizeof(BiEdge);
      }
      result.graph.AddToPartition(d, std::move(node));
    }
    nodes[d].clear();
  }
  return result;
}

DbgResult BuildDbg(const std::vector<Read>& reads,
                   const AssemblerOptions& options, PipelineStats* stats) {
  ReadStream stream(std::make_unique<VectorReadSource>(reads));
  return BuildDbg(stream, options, stats);
}

}  // namespace ppa
