// Ablation A5: in-memory job concatenation (the paper's convert() API
// extension, Sec. II) vs routing intermediate results through the
// HDFS-stand-in text store between operations.
//
// Measures the labeling->merging handoff: once with the labeled vertex set
// passed in memory (as PPA-assembler does), once with the labels serialized
// to part files and re-parsed (as "existing Pregel-like systems require").
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "util/text_store.h"
#include "util/timer.h"

int main() {
  using namespace ppa;
  bench::PrintHeader(
      "Ablation: in-memory job concatenation vs HDFS-style round trip");

  Dataset ds = MakeDataset(DatasetId::kHc2);
  AssemblerOptions options = bench::PaperOptions();
  DbgResult dbg = BuildDbg(ds.reads, options);
  LabelingResult labels =
      LabelContigs(dbg.graph, options, LabelingMethod::kListRanking);

  // --- In-memory handoff. ---------------------------------------------------
  Timer in_mem;
  {
    AssemblyGraph graph = dbg.graph;  // Copy so both variants see same input.
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    MergeContigs(graph, labels, options, &ordinals);
  }
  double in_mem_secs = in_mem.Seconds();

  // --- Text-store round trip: dump labels + graph payloads, reload. --------
  Timer round_trip;
  uint64_t bytes = 0;
  {
    TextStore store("/tmp/ppa_inmem_ablation");
    store.Clear();
    // Dump one (partition, slot, label) record per labeled vertex, as
    // job 1's output would be.
    std::vector<std::string> lines;
    for (const std::vector<LabelEntry>& entries : labels.labels) {
      for (const LabelEntry& e : entries) {
        lines.push_back(std::to_string(e.partition) + "\t" +
                        std::to_string(e.slot) + "\t" +
                        std::to_string(e.label));
      }
    }
    store.WritePart(0, lines);
    // Reload and re-parse, as job 2's input phase would.
    LabelingResult reloaded;
    reloaded.labels.resize(labels.labels.size());
    for (const std::string& line : store.ReadAll()) {
      const size_t tab1 = line.find('\t');
      const size_t tab2 = line.find('\t', tab1 + 1);
      LabelEntry e;
      e.partition = static_cast<uint32_t>(std::stoul(line.substr(0, tab1)));
      e.slot = static_cast<uint32_t>(
          std::stoul(line.substr(tab1 + 1, tab2 - tab1 - 1)));
      e.label = std::stoull(line.substr(tab2 + 1));
      reloaded.labels[e.partition].push_back(e);
    }
    bytes = store.TotalBytes();
    AssemblyGraph graph = dbg.graph;
    std::vector<uint32_t> ordinals(options.num_workers, 0);
    MergeContigs(graph, reloaded, options, &ordinals);
    store.Clear();
  }
  double round_trip_secs = round_trip.Seconds();

  size_t labeled = 0;
  for (const std::vector<LabelEntry>& entries : labels.labels) {
    labeled += entries.size();
  }
  std::printf("Labeled vertices: %zu\n", labeled);
  std::printf("In-memory handoff + merge:   %8.3f s\n", in_mem_secs);
  std::printf("Text-store round trip + merge: %6.3f s (%llu bytes written)\n",
              round_trip_secs, static_cast<unsigned long long>(bytes));
  std::printf("Overhead of the round trip:  %8.2fx\n",
              in_mem_secs > 0 ? round_trip_secs / in_mem_secs : 0);
  std::printf(
      "(On a real cluster the gap widens: HDFS replication adds network\n"
      " writes; the paper's extension avoids them entirely.)\n");
  return 0;
}
