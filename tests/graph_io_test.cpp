// Tests for graph/contig persistence (dbg/graph_io.h): the "read input
// from HDFS" leg of the paper's dual input model.
#include "dbg/graph_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

namespace ppa {
namespace {

AssemblerOptions Options() {
  AssemblerOptions options;
  options.k = 15;
  options.coverage_threshold = 1;
  options.num_workers = 4;
  options.num_threads = 2;
  return options;
}

AssemblyGraph BuildTestGraph(const AssemblerOptions& options) {
  GenomeConfig gconfig;
  gconfig.length = 3000;
  gconfig.repeat_families = 1;
  gconfig.repeat_length = 100;
  gconfig.repeat_copies = 3;
  gconfig.seed = 3;
  PackedSequence genome = GenerateGenome(gconfig);
  ReadSimConfig rconfig;
  rconfig.read_length = 60;
  rconfig.coverage = 20;
  rconfig.error_rate = 0;
  std::vector<Read> reads = SimulateReads(genome, rconfig);
  DbgResult dbg = BuildDbg(reads, options);
  return std::move(dbg.graph);
}

bool NodesEqual(const AsmNode& a, const AsmNode& b) {
  if (a.id != b.id || a.kind != b.kind || a.coverage != b.coverage ||
      a.circular != b.circular || a.edges.size() != b.edges.size()) {
    return false;
  }
  if (a.kind == NodeKind::kKmer && a.k != b.k)
    return false;
  if (a.kind == NodeKind::kContig && a.seq != b.seq) return false;
  for (size_t i = 0; i < a.edges.size(); ++i) {
    if (!(a.edges[i] == b.edges[i])) return false;
  }
  return true;
}

TEST(GraphIoTest, NodeEncodeDecodeRoundTrip) {
  AsmNode kmer;
  kmer.kind = NodeKind::kKmer;
  kmer.id = Kmer::FromString("ACGTTGCATGGATCC").code();
  kmer.k = 15;
  kmer.coverage = 42;
  kmer.edges.push_back(BiEdge{123456, NodeEnd::k3, NodeEnd::k5, 7});
  kmer.edges.push_back(BiEdge{kNullId, NodeEnd::k5, NodeEnd::k3, 1});
  EXPECT_TRUE(NodesEqual(DecodeNode(EncodeNode(kmer)), kmer));

  AsmNode contig;
  contig.kind = NodeKind::kContig;
  contig.id = MakeContigId(2, 9);
  contig.coverage = 13;
  contig.circular = true;
  contig.seq = PackedSequence::FromString("ACGTTGCATGGATCCTAGCAT");
  EXPECT_TRUE(NodesEqual(DecodeNode(EncodeNode(contig)), contig));
}

TEST(GraphIoTest, GraphSaveLoadRoundTrip) {
  AssemblerOptions options = Options();
  AssemblyGraph graph = BuildTestGraph(options);

  std::string dir = "/tmp/ppa_graph_io_test";
  std::filesystem::remove_all(dir);
  TextStore store(dir);
  SaveGraph(graph, store);

  // Reload with a *different* worker count: contents must be identical.
  AssemblyGraph loaded = LoadGraph(store, 7);
  EXPECT_EQ(loaded.live_size(), graph.live_size());
  graph.ForEach([&](const AsmNode& node) {
    const AsmNode* other = loaded.Find(node.id);
    ASSERT_NE(other, nullptr) << node.id;
    EXPECT_TRUE(NodesEqual(node, *other)) << node.id;
  });
  std::filesystem::remove_all(dir);
}

TEST(GraphIoTest, PipelineResumesFromCheckpoint) {
  // Checkpoint after DBG construction, reload, and continue the pipeline:
  // results must match the uninterrupted run.
  AssemblerOptions options = Options();
  AssemblyGraph graph = BuildTestGraph(options);

  std::string dir = "/tmp/ppa_graph_io_ckpt";
  std::filesystem::remove_all(dir);
  TextStore store(dir);
  SaveGraph(graph, store);
  AssemblyGraph resumed = LoadGraph(store, options.num_workers);

  auto finish = [&](AssemblyGraph& g) {
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    LabelingResult labels =
        LabelContigs(g, options, LabelingMethod::kListRanking);
    MergeContigs(g, labels, options, &ordinals);
    std::vector<std::string> seqs;
    for (const ContigRecord& c : CollectContigs(g)) {
      std::string s = c.seq.ToString();
      std::string rc = c.seq.ReverseComplement().ToString();
      seqs.push_back(std::min(s, rc));
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
  };
  EXPECT_EQ(finish(graph), finish(resumed));
  std::filesystem::remove_all(dir);
}

TEST(GraphIoTest, ContigsSaveLoadRoundTrip) {
  std::vector<ContigRecord> contigs;
  for (uint32_t i = 0; i < 9; ++i) {
    ContigRecord c;
    c.id = MakeContigId(i % 3, i);
    c.coverage = 5 + i;
    c.circular = (i % 4 == 0);
    std::string seq;
    for (uint32_t j = 0; j < 20 + i; ++j) seq += "ACGT"[(i + j) % 4];
    c.seq = PackedSequence::FromString(seq);
    contigs.push_back(std::move(c));
  }
  std::string dir = "/tmp/ppa_contig_io_test";
  std::filesystem::remove_all(dir);
  TextStore store(dir);
  SaveContigs(contigs, store, 3);
  std::vector<ContigRecord> loaded = LoadContigs(store);
  ASSERT_EQ(loaded.size(), contigs.size());
  auto key = [](const ContigRecord& c) { return c.id; };
  std::sort(loaded.begin(), loaded.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(contigs.begin(), contigs.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  for (size_t i = 0; i < contigs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, contigs[i].id);
    EXPECT_EQ(loaded[i].coverage, contigs[i].coverage);
    EXPECT_EQ(loaded[i].circular, contigs[i].circular);
    EXPECT_EQ(loaded[i].seq, contigs[i].seq);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ppa
