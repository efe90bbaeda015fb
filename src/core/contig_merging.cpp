#include "core/contig_merging.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "pregel/mapreduce.h"
#include "util/logging.h"

namespace ppa {

namespace {

/// One port of a path vertex: its edge at one end, if any (a path vertex
/// has at most one per end); `to` is kNullId if there is none.
struct PortEdge {
  uint64_t to = kNullId;
  uint32_t coverage = 0;
  NodeEnd to_end = NodeEnd::k5;
};

/// Shuffle value of the group-by-label job: one labeled path vertex,
/// flattened to what stitching reads.
struct PathVertex {
  uint64_t id = 0;
  // k-mer vertex: its k-mer code. Contig vertex: its slot in partition
  // PartitionOf(id); the reducer reads the sequence from the graph, which
  // the job does not modify.
  uint64_t code_or_slot = 0;
  PortEdge port[2];  // [0] = 5' end, [1] = 3' end
  uint32_t coverage = 0;
  NodeKind kind = NodeKind::kKmer;

  const PortEdge& PortAt(NodeEnd end) const {
    return port[static_cast<int>(end)];
  }
};

/// One end's connection of a stitched contig to the outside world.
struct OuterLink {
  bool present = false;
  uint64_t outer_id = kNullId;   // the ambiguous vertex beyond the path end
  NodeEnd outer_end = NodeEnd::k5;  // which of its ends the edge attaches to
  uint64_t old_node = 0;         // the merged path vertex it used to touch
  NodeEnd old_node_end = NodeEnd::k5;
  uint32_t coverage = 0;
};

/// Reduce output: a stitched contig (or a dropped-tip tombstone) plus the
/// link notices its endpoints owe to their ambiguous neighbors.
struct MergedContig {
  AsmNode node;       // id assigned after the MR job
  OuterLink outer[2];  // [0] = contig 5' side, [1] = contig 3' side
  bool dropped = false;
};

/// Notice delivered to an ambiguous vertex: drop the stale edge into the
/// merged path and (unless the contig was dropped as a tip) link to the
/// new contig vertex instead. Fields are ordered so the record is 24 bytes,
/// one of them padding.
struct LinkNotice {
  uint64_t contig_id = 0;  // 0 for dropped tips
  uint64_t old_node = 0;
  uint32_t coverage = 0;
  NodeEnd contig_end = NodeEnd::k5;
  NodeEnd my_end = NodeEnd::k5;  // the ambiguous vertex's own end
  NodeEnd old_node_end = NodeEnd::k5;
};

/// The link that leaves path vertex `v` at its `end`.
OuterLink LinkAt(const PathVertex& v, NodeEnd end) {
  const PortEdge& e = v.PortAt(end);
  return OuterLink{true, e.to, e.to_end, v.id, end, e.coverage};
}

/// Appends the bases read by entering `v` at `entry`, from base `from` on:
/// the stored orientation entering at the 5' end, the reverse complement
/// entering at 3'.
void AppendOriented(const PathVertex& v, NodeEnd entry, size_t from, int k,
                    const AssemblyGraph& graph, PackedSequence* seq) {
  if (v.kind == NodeKind::kKmer) {
    const Kmer kmer(v.code_or_slot, k);
    seq->AppendKmer(entry == NodeEnd::k5 ? kmer : kmer.ReverseComplement(),
                    static_cast<int>(from));
    return;
  }
  const PackedSequence& contig =
      graph.partition(PartitionOf(v.id, graph.num_workers()))
          .vertices[v.code_or_slot]
          .seq;
  if (entry == NodeEnd::k5) {
    seq->Append(contig, from);
    return;
  }
  for (size_t i = contig.size() - from; i > 0; --i) {
    seq->PushBack(ComplementBase(contig.BaseAt(i - 1)));
  }
}

/// Stitches one label group into a contig. Implements the ordering +
/// polarity-aware concatenation of Sec. IV.B-3 on the bidirected view:
/// entering a vertex at its 5' end contributes its stored sequence,
/// entering at its 3' end contributes the reverse complement; consecutive
/// vertices overlap by (k-1) bases. Sorts `group` by id.
MergedContig StitchGroup(std::span<PathVertex> group,
                         const AssemblyGraph& graph, int k,
                         uint32_t tip_threshold) {
  std::sort(group.begin(), group.end(),
            [](const PathVertex& a, const PathVertex& b) {
              return a.id < b.id;
            });
  const size_t kAbsent = group.size();
  auto index_of = [&group, kAbsent](uint64_t id) {
    auto it = std::lower_bound(
        group.begin(), group.end(), id,
        [](const PathVertex& v, uint64_t key) { return v.id < key; });
    return (it != group.end() && it->id == id)
               ? static_cast<size_t>(it - group.begin())
               : kAbsent;
  };

  // Find a contig-end vertex: one whose edge at some end is absent or
  // leaves the group. Scan in id order for determinism.
  size_t start = kAbsent;
  NodeEnd entry = NodeEnd::k5;
  for (size_t i = 0; i < group.size() && start == kAbsent; ++i) {
    for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
      const PortEdge& e = group[i].PortAt(end);
      if (e.to == kNullId || index_of(e.to) == kAbsent) {
        start = i;
        entry = end;
        break;
      }
    }
  }
  // No end found: the group is a cycle of <1-1> vertices.
  const bool circular = (start == kAbsent);
  if (circular) start = 0;

  MergedContig out;
  out.node.kind = NodeKind::kContig;
  out.node.k = static_cast<uint8_t>(k);
  out.node.circular = circular;

  // Record the 5'-side outer link.
  if (!circular && group[start].PortAt(entry).to != kNullId) {
    out.outer[0] = LinkAt(group[start], entry);
  }

  // Walk and stitch.
  PackedSequence& seq = out.node.seq;
  AppendOriented(group[start], entry, 0, k, graph, &seq);
  uint32_t coverage = group[start].coverage;
  std::vector<uint8_t> visited(group.size(), 0);
  visited[start] = 1;
  size_t cur = start;
  NodeEnd ent = entry;
  for (;;) {
    const NodeEnd exit = OppositeEnd(ent);
    const PortEdge& e = group[cur].PortAt(exit);
    if (e.to == kNullId) break;  // Dead end: 3' side has no outer link.
    const size_t next = index_of(e.to);
    if (next == kAbsent) {
      out.outer[1] = LinkAt(group[cur], exit);  // 3'-side outer link.
      break;
    }
    if (circular && next == start) {
      coverage = std::min(coverage, e.coverage);
      break;  // Cycle closed.
    }
    if (visited[next] != 0) break;  // Defensive (bad labels).
    visited[next] = 1;
    coverage = std::min({coverage, e.coverage, group[next].coverage});
    AppendOriented(group[next], e.to_end, static_cast<size_t>(k - 1), k,
                   graph, &seq);
    cur = next;
    ent = e.to_end;
  }

  out.node.coverage = coverage;
  if (out.outer[0].present) {
    out.node.edges.push_back(BiEdge{out.outer[0].outer_id, NodeEnd::k5,
                                    out.outer[0].outer_end,
                                    out.outer[0].coverage});
  }
  if (out.outer[1].present) {
    out.node.edges.push_back(BiEdge{out.outer[1].outer_id, NodeEnd::k3,
                                    out.outer[1].outer_end,
                                    out.outer[1].coverage});
  }

  // Tip check at merge time: dangling & short => drop (Sec. IV.B-3).
  bool dangling =
      !circular && (!out.outer[0].present || !out.outer[1].present);
  if (dangling && out.node.seq.size() <= tip_threshold) {
    out.dropped = true;
  }
  return out;
}

}  // namespace

MergeResult MergeContigs(AssemblyGraph& graph, const LabelingResult& labels,
                         const AssemblerOptions& options,
                         std::vector<uint32_t>* next_contig_ordinal,
                         PipelineStats* stats) {
  CheckGraphWorkers("MergeContigs", graph.num_workers(), options);
  const uint32_t W = options.num_workers;
  PPA_CHECK(next_contig_ordinal != nullptr &&
            next_contig_ordinal->size() == W);
  MergeResult result;

  // ---- Group-by-label MR over the label lists: each entry names its
  // vertex's (partition, slot), so the map reads the vertex in place. -----
  const AssemblyGraph& in_graph = graph;
  auto map_fn = [&in_graph](const LabelEntry& entry, auto& emitter) {
    const AsmNode& node =
        in_graph.partition(entry.partition).vertices[entry.slot];
    PathVertex v;
    v.id = node.id;
    v.kind = node.kind;
    v.code_or_slot = node.kind == NodeKind::kKmer ? node.id : entry.slot;
    for (NodeEnd end : {NodeEnd::k5, NodeEnd::k3}) {
      if (const BiEdge* e = node.EdgeAt(end)) {
        v.port[static_cast<int>(end)] = PortEdge{e->to, e->coverage, e->to_end};
      }
    }
    v.coverage = node.coverage;
    emitter.Emit(entry.label, v);
  };

  const int k = options.k;
  const uint32_t tip_threshold = options.tip_length_threshold;
  std::atomic<uint64_t> tips_dropped{0};
  std::atomic<uint64_t> circular_count{0};
  std::atomic<uint64_t> nodes_merged{0};
  auto reduce_fn = [&](const uint64_t& /*label*/,
                       std::span<PathVertex> group,
                       std::vector<MergedContig>& out) {
    nodes_merged.fetch_add(group.size(), std::memory_order_relaxed);
    MergedContig merged = StitchGroup(group, in_graph, k, tip_threshold);
    if (merged.dropped) {
      tips_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    if (merged.node.circular) {
      circular_count.fetch_add(1, std::memory_order_relaxed);
    }
    out.push_back(std::move(merged));
  };

  Partitioned<MergedContig> merged =
      RunMapReduce<LabelEntry, uint64_t, PathVertex, MergedContig>(
          labels.labels, map_fn, reduce_fn,
          MakeMrConfig(options, "contig-merging"), &result.merge_stats);
  if (stats != nullptr) stats->Add(result.merge_stats);
  result.tips_dropped = tips_dropped.load();
  result.circular_contigs = circular_count.load();
  result.nodes_merged = nodes_merged.load();

  // ---- Assign contig IDs: worker d names its j-th contig (Fig. 7c). ------
  for (uint32_t d = 0; d < W; ++d) {
    for (MergedContig& m : merged[d]) {
      if (m.dropped) continue;
      m.node.id = MakeContigId(d, (*next_contig_ordinal)[d]++);
      ++result.contigs_created;
    }
  }

  // ---- Remove merged path nodes from the graph. ----------------------------
  for (const std::vector<LabelEntry>& entries : labels.labels) {
    for (const LabelEntry& entry : entries) {
      graph.partition(entry.partition).vertices[entry.slot].removed = true;
    }
  }

  // ---- Link-notice MR: tell ambiguous endpoints to relink. ----------------
  auto notice_map_fn = [](const MergedContig& m, auto& emitter) {
    for (int side = 0; side < 2; ++side) {
      const OuterLink& o = m.outer[side];
      if (!o.present) continue;
      LinkNotice notice;
      notice.contig_id = m.dropped ? 0 : m.node.id;
      notice.contig_end = (side == 0) ? NodeEnd::k5 : NodeEnd::k3;
      notice.my_end = o.outer_end;
      notice.old_node = o.old_node;
      notice.old_node_end = o.old_node_end;
      notice.coverage = o.coverage;
      emitter.Emit(o.outer_id, notice);
    }
  };
  // A group's notices arrive in (source, emit) order, the order they are
  // applied in below.
  auto notice_reduce_fn = [](const uint64_t& outer_id,
                             std::span<LinkNotice> group,
                             std::vector<std::pair<uint64_t, LinkNotice>>&
                                 out) {
    for (const LinkNotice& n : group) out.emplace_back(outer_id, n);
  };

  Partitioned<std::pair<uint64_t, LinkNotice>> notices =
      RunMapReduce<MergedContig, uint64_t, LinkNotice,
                   std::pair<uint64_t, LinkNotice>>(
          merged, notice_map_fn, notice_reduce_fn,
          MakeMrConfig(options, "contig-merging-link-update"),
          &result.link_stats);
  if (stats != nullptr) stats->Add(result.link_stats);

  // ---- Insert contig nodes and apply notices. ------------------------------
  for (uint32_t d = 0; d < W; ++d) {
    for (MergedContig& m : merged[d]) {
      if (m.dropped) continue;
      graph.Add(std::move(m.node));
    }
  }
  for (uint32_t d = 0; d < W; ++d) {
    for (const auto& [outer_id, notice] : notices[d]) {
      AsmNode* outer = graph.Find(outer_id);
      if (outer == nullptr) continue;  // Endpoint itself merged? Impossible
                                       // for correct labels; defensive.
      // The edge into the merged path: my_end on the ambiguous vertex,
      // old_node_end on the (now removed) path vertex.
      outer->RemoveEdge(notice.old_node, notice.my_end,
                        notice.old_node_end);
      if (notice.contig_id != 0) {
        outer->edges.push_back(BiEdge{notice.contig_id, notice.my_end,
                                      notice.contig_end, notice.coverage});
      }
    }
  }
  graph.Compact();
  return result;
}

}  // namespace ppa
