#include "core/tip_removal.h"

#include <algorithm>
#include <span>
#include <vector>

#include "pregel/convert.h"
#include "pregel/engine.h"
#include "pregel/graph.h"

namespace ppa {

namespace {

struct TipMessage {
  enum Type : uint8_t { kRequest = 0, kDelete = 1 };
  uint8_t type = 0;
  uint8_t entry_end = 0;   // Receiver's end the message arrives at.
  uint64_t origin = 0;     // The <1> vertex that initiated the REQUEST.
  uint64_t from = 0;       // Immediate sender (DELETE return path).
  uint64_t cum_len = 0;    // Cumulative dangling-path length so far.
};

/// A REQUEST this vertex relayed: remembered so the matching DELETE can be
/// retraced toward the initiator.
struct PendingRelay {
  uint64_t origin = 0;
  uint64_t back_id = 0;  // Vertex the REQUEST came from.
};

struct TipVertex {
  using Message = TipMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  NodeKind kind = NodeKind::kKmer;
  uint32_t seq_len = 0;  // k for k-mer nodes, contig length otherwise.
  uint8_t k = 0;
  std::vector<BiEdge> edges;
  std::vector<PendingRelay> pending;
  // Diffs applied back to the assembly graph after the job.
  std::vector<BiEdge> cut_edges;
  bool initiated = false;  // Stats: this vertex started a REQUEST.

  uint64_t Contribution() const {
    return kind == NodeKind::kKmer ? 1 : (seq_len - (k - 1));
  }

  /// Sends the initial REQUEST from a <1> vertex along its only edge.
  template <typename Ctx>
  void Initiate(Ctx& ctx) {
    const BiEdge& e = edges.front();
    TipMessage m;
    m.type = TipMessage::kRequest;
    m.entry_end = static_cast<uint8_t>(e.to_end);
    m.origin = id;
    m.from = id;
    m.cum_len = seq_len;  // "initializes the cumulative sequence length
                          //  as k (i.e., u's sequence length)"
    ctx.SendTo(e.to, m);
    initiated = true;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const TipMessage> msgs) {
    const uint32_t tip_threshold = threshold_;
    VertexType type = ClassifyVertex(id, edges);
    if (ctx.superstep() == 0) {
      if (type == VertexType::kIsolated) {
        if (seq_len <= tip_threshold) {
          ctx.RemoveSelf();
          return;
        }
        ctx.VoteToHalt();
        return;
      }
      if (type == VertexType::kOne) {
        Initiate(ctx);
      }
      ctx.VoteToHalt();
      return;
    }

    for (const TipMessage& m : msgs) {
      if (removed) break;
      if (m.type == TipMessage::kRequest) {
        HandleRequest(ctx, m, tip_threshold);
      } else {
        HandleDelete(ctx, m);
      }
    }
    if (!removed && just_became_one_ &&
        ClassifyVertex(id, edges) == VertexType::kOne) {
      just_became_one_ = false;
      Initiate(ctx);
    }
    ctx.VoteToHalt();
  }

 private:
  template <typename Ctx>
  void HandleRequest(Ctx& ctx, const TipMessage& m, uint32_t tip_threshold) {
    VertexType type = ClassifyVertex(id, edges);
    if (type == VertexType::kOneOne) {
      // Relay out of the other end, adding our own contribution.
      NodeEnd entry = static_cast<NodeEnd>(m.entry_end);
      const BiEdge* out = UniqueEdgeAt(edges, OppositeEnd(entry));
      if (out == nullptr) {
        // Degenerate (both edges at one end would be <m-n>); treat as
        // terminal below.
        Terminal(ctx, m, tip_threshold);
        return;
      }
      pending.push_back(PendingRelay{m.origin, m.from});
      TipMessage relay = m;
      relay.entry_end = static_cast<uint8_t>(out->to_end);
      relay.from = id;
      relay.cum_len = m.cum_len + Contribution();
      ctx.SendTo(out->to, relay);
      return;
    }
    Terminal(ctx, m, tip_threshold);
  }

  /// REQUEST arrived at an <m-n> or <1> vertex (or a degenerate case):
  /// decide whether to delete the dangling path.
  template <typename Ctx>
  void Terminal(Ctx& ctx, const TipMessage& m, uint32_t tip_threshold) {
    if (m.origin == id) return;  // Our own REQUEST bounced around a loop.
    if (m.cum_len > tip_threshold) return;  // Long: it is a real contig.
    TipMessage del;
    del.type = TipMessage::kDelete;
    del.origin = m.origin;
    del.from = id;
    ctx.SendTo(m.from, del);
    // "An <m-n>-typed vertex also deletes its edge to the neighbor that it
    //  sends a DELETE message" — <1> terminals die via the twin DELETE.
    if (ClassifyVertex(id, edges) == VertexType::kManyMany) {
      CutEdgesTo(m.from);
      if (ClassifyVertex(id, edges) == VertexType::kOne) {
        just_became_one_ = true;
      }
    }
  }

  template <typename Ctx>
  void HandleDelete(Ctx& ctx, const TipMessage& m) {
    if (id == m.origin) {
      ctx.RemoveSelf();
      return;
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].origin == m.origin) {
        TipMessage del = m;
        del.from = id;
        ctx.SendTo(pending[i].back_id, del);
        pending.erase(pending.begin() + static_cast<long>(i));
        ctx.RemoveSelf();
        return;
      }
    }
    // DELETE for a path we did not relay (e.g. the meet-in-the-middle case
    // after removal): drop.
  }

  void CutEdgesTo(uint64_t nbr) {
    for (size_t i = edges.size(); i > 0; --i) {
      if (edges[i - 1].to == nbr) {
        cut_edges.push_back(edges[i - 1]);
        edges.erase(edges.begin() + static_cast<long>(i - 1));
      }
    }
  }

 public:
  uint32_t threshold_ = 0;
  bool just_became_one_ = false;
};

}  // namespace

TipResult RemoveTips(AssemblyGraph& graph, const AssemblerOptions& options,
                     PipelineStats* stats) {
  TipResult result;

  const uint32_t threshold = options.tip_length_threshold;
  PartitionedGraph<TipVertex> tip_graph = MirrorGraph<TipVertex>(
      graph, options.num_threads,
      [threshold](const AsmNode& node, TipVertex* v) {
        v->kind = node.kind;
        v->k = node.k;
        v->seq_len = static_cast<uint32_t>(node.SeqLength());
        v->edges = node.edges;
        v->threshold_ = threshold;
      });
  // REQUESTs and DELETEs are sent by id.
  CopyIndex(graph, &tip_graph);

  EngineConfig config;
  config.num_threads = options.num_threads;
  config.job_name = "tip-removing";
  Engine<TipVertex> engine(config);
  result.stats = engine.Run(tip_graph);
  if (stats != nullptr) stats->Add(result.stats);

  // ---- Apply diffs back to the assembly graph, slot by slot. --------------
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    std::vector<AsmNode>& nodes = graph.partition(p).vertices;
    const std::vector<TipVertex>& tips = tip_graph.partition(p).vertices;
    for (size_t slot = 0; slot < nodes.size(); ++slot) {
      AsmNode& node = nodes[slot];
      const TipVertex& v = tips[slot];
      if (node.removed) continue;
      if (v.removed) {
        node.removed = true;
        ++result.vertices_removed;
        continue;
      }
      if (v.initiated) ++result.requests_sent;
      for (const BiEdge& cut : v.cut_edges) {
        node.RemoveEdge(cut.to, cut.my_end, cut.to_end);
        ++result.edges_cut;
      }
    }
  }
  // Edges *into* removed vertices may linger at surviving neighbors whose
  // side never saw a DELETE (e.g. a vertex removed while its neighbor kept
  // no pending relay). Sweep them out.
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    for (AsmNode& node : graph.partition(p).vertices) {
      if (node.removed) continue;
      std::erase_if(node.edges, [&](const BiEdge& e) {
        return e.to != kNullId && e.to != node.id &&
               graph.Find(e.to) == nullptr;
      });
    }
  }
  graph.Compact();
  return result;
}

}  // namespace ppa
