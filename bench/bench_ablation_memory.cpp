// Ablation A3: memory of the compressed 32-bit-bitmap adjacency format
// (Fig. 8a, with varint coverage counts) vs the uncompressed bidirected
// edge records, measured on a freshly constructed DBG — the stage the paper
// identifies as "the most memory-consuming" (Sec. IV.A).
//
// Also exercises A4's claim ("no additional space is needed to store the
// sequence of a k-mer vertex") by comparing against a string-keyed layout.
#include <cstdio>

#include "bench_common.h"
#include "core/dbg_construction.h"
#include "util/varint.h"

int main() {
  using namespace ppa;
  bench::PrintHeader("Ablation: compressed adjacency-list memory (Fig. 8a)");

  Dataset ds = MakeDataset(DatasetId::kHc2);
  AssemblerOptions options = bench::PaperOptions();
  DbgResult dbg = BuildDbg(ds.reads, options);

  // What the two adjacency formats would occupy: Fig. 8a's 32-bit bitmap
  // per vertex plus a varint coverage per edge, against one BiEdge record
  // per edge.
  uint64_t vertices = dbg.graph.live_size();
  uint64_t edge_slots = 0;
  uint64_t packed_adjacency_bytes = 0;
  uint64_t unpacked_adjacency_bytes = 0;
  dbg.graph.ForEach([&](const AsmNode& node) {
    edge_slots += node.edges.size();
    packed_adjacency_bytes += sizeof(uint32_t);
    for (const BiEdge& e : node.edges) {
      packed_adjacency_bytes += VarintLength(e.coverage);
      unpacked_adjacency_bytes += sizeof(BiEdge);
    }
  });

  // Integer-ID vertex: 8 bytes; string-keyed vertex: k bytes of sequence
  // plus typical std::string overhead (32 bytes header on libstdc++).
  uint64_t int_id_bytes = vertices * sizeof(uint64_t);
  uint64_t string_id_bytes = vertices * (options.k + 32);

  std::printf("DBG: %llu k-mer vertices, %llu adjacency entries\n",
              static_cast<unsigned long long>(vertices),
              static_cast<unsigned long long>(edge_slots));
  bench::PrintRule();
  std::printf("Adjacency, compressed (bitmap+varint): %10.2f MiB (%.2f B/vertex)\n",
              packed_adjacency_bytes / 1048576.0,
              vertices ? static_cast<double>(packed_adjacency_bytes) /
                             vertices
                       : 0);
  std::printf("Adjacency, uncompressed (BiEdge recs): %10.2f MiB (%.2f B/vertex)\n",
              unpacked_adjacency_bytes / 1048576.0,
              vertices ? static_cast<double>(unpacked_adjacency_bytes) /
                             vertices
                       : 0);
  std::printf("Compression ratio: %.2fx\n",
              packed_adjacency_bytes
                  ? static_cast<double>(unpacked_adjacency_bytes) /
                        packed_adjacency_bytes
                  : 0);
  bench::PrintRule();
  std::printf("Vertex IDs, 64-bit integer:            %10.2f MiB\n",
              int_id_bytes / 1048576.0);
  std::printf("Vertex IDs, sequence string:           %10.2f MiB (%.2fx)\n",
              string_id_bytes / 1048576.0,
              static_cast<double>(string_id_bytes) / int_id_bytes);
  return 0;
}
