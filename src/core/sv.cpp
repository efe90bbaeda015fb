#include "core/sv.h"

#include <span>

#include "pregel/engine.h"
#include "pregel/graph.h"
#include "util/thread_pool.h"

namespace ppa {

namespace {

// Every message names one vertex by its id and its slot, so each S-V send
// is addressed: queries name the sender, the others a D[] value.
struct SvMessage {
  enum Type : uint8_t { kQuery = 0, kReply = 1, kAnnounce = 2, kHook = 3 };
  uint8_t type = 0;
  uint32_t slot = 0;   // Slot of the vertex `value` names.
  uint64_t value = 0;  // kQuery: sender id; others: a D[] value.
};
// Tables II/III count message bytes, so a new field must fit the padding.
static_assert(sizeof(SvMessage) == 16);

/// A neighbor of an S-V vertex: its id and its slot in its partition.
struct SvNeighbor {
  uint64_t id = 0;
  uint32_t slot = 0;
};

struct SvVertex {
  using Message = SvMessage;

  uint64_t id = 0;
  uint64_t d = 0;              // Parent pointer D[v].
  uint64_t grandparent = 0;    // D[D[v]] learned at p2 of this round.
  uint64_t round_changes = 1;  // Last observed global change count.
  // A run of the partition's neighbor array (RunSimplifiedSv owns it).
  std::span<const SvNeighbor> neighbors;
  uint32_t d_slot = 0;
  uint32_t grandparent_slot = 0;
  bool halted = false;
  bool removed = false;
  bool done = false;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const SvMessage> msgs) {
    if (done) {
      // Converged vertices only wake to drain stray messages.
      ctx.VoteToHalt();
      return;
    }
    const uint32_t phase = ctx.superstep() % 4;
    switch (phase) {
      case 0: {
        // Apply hooks (p3 of the previous round) and the shortcut, both as
        // min-updates; count whether D changed.
        uint64_t new_d = d;
        uint32_t new_d_slot = d_slot;
        auto lower_to = [&](uint64_t value, uint32_t slot) {
          if (value < new_d) {
            new_d = value;
            new_d_slot = slot;
          }
        };
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kHook) lower_to(m.value, m.slot);
        }
        if (ctx.superstep() >= 4) {
          lower_to(grandparent, grandparent_slot);
          if (round_changes == 0) {
            // Previous round changed nothing anywhere: converged.
            done = true;
            ctx.VoteToHalt();
            return;
          }
        }
        uint64_t changed = (new_d != d) ? 1 : 0;
        // Round 0 counts initialization as a change so nobody exits early.
        if (ctx.superstep() == 0) changed = 1;
        d = new_d;
        d_slot = new_d_slot;
        ctx.Aggregate(0, changed);
        ctx.SendTo(d, d_slot, SvMessage{SvMessage::kQuery, ctx.slot(), id});
        break;
      }
      case 1: {
        // Record the change count aggregated at p0 (read at the next p0).
        round_changes = ctx.PrevAggregate(0);
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kQuery) {
            ctx.SendTo(m.value, m.slot,
                       SvMessage{SvMessage::kReply, d_slot, d});
          }
        }
        break;
      }
      case 2: {
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kReply) {
            grandparent = m.value;
            grandparent_slot = m.slot;
          }
        }
        for (const SvNeighbor& nbr : neighbors) {
          ctx.SendTo(nbr.id, nbr.slot,
                     SvMessage{SvMessage::kAnnounce, d_slot, d});
        }
        break;
      }
      case 3: {
        // Tree hooking: if our parent w is a root (its parent is itself,
        // i.e. grandparent == d), propose the smallest neighbor parent.
        if (grandparent == d) {
          uint64_t best = d;
          uint32_t best_slot = d_slot;
          for (const SvMessage& m : msgs) {
            if (m.type == SvMessage::kAnnounce && m.value < best) {
              best = m.value;
              best_slot = m.slot;
            }
          }
          if (best < d) {
            ctx.SendTo(d, d_slot, SvMessage{SvMessage::kHook, best_slot, best});
          }
        }
        break;
      }
    }
  }
};
// One per S-V input; the S-V method labels every unambiguous vertex.
static_assert(sizeof(SvVertex) <= 72);

}  // namespace

SvResult RunSimplifiedSv(const std::vector<SvInput>& vertices,
                         uint32_t num_workers, unsigned num_threads,
                         const std::string& job_name) {
  // members[p]: the inputs partition p holds, in input order; the i-th of
  // them takes slot i.
  std::vector<std::vector<uint32_t>> members(num_workers);
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    members[PartitionOf(vertices[i].id, num_workers)].push_back(i);
  }
  PartitionedGraph<SvVertex> graph(num_workers);
  std::vector<std::vector<SvNeighbor>> neighbors(num_workers);
  ThreadPool pool(num_threads == 0 ? ThreadPool::DefaultThreads()
                                   : num_threads);
  pool.Run(num_workers, [&](uint32_t p) {
    auto& part = graph.partition(p);
    part.vertices.resize(members[p].size());
    part.index.Reserve(members[p].size());
    size_t num_neighbors = 0;
    for (uint32_t slot = 0; slot < members[p].size(); ++slot) {
      const SvInput& in = vertices[members[p][slot]];
      SvVertex& v = part.vertices[slot];
      v.id = v.d = v.grandparent = in.id;
      v.d_slot = v.grandparent_slot = slot;
      part.index.Insert(in.id, slot);
      num_neighbors += in.neighbors.size();
    }
    neighbors[p].reserve(num_neighbors);
  });
  // Once every index is complete, resolve the neighbors' slots into one
  // array per partition (an id no input holds resolves to kAbsent, so
  // announcements to it are dropped).
  pool.Run(num_workers, [&](uint32_t p) {
    std::vector<SvNeighbor>& run = neighbors[p];
    for (uint32_t slot = 0; slot < members[p].size(); ++slot) {
      const size_t begin = run.size();
      for (uint64_t nbr : vertices[members[p][slot]].neighbors) {
        const auto& to = graph.partition(PartitionOf(nbr, num_workers));
        run.push_back(SvNeighbor{nbr, to.index.Find(nbr)});
      }
      graph.partition(p).vertices[slot].neighbors =
          std::span<const SvNeighbor>(run).subspan(begin);
    }
  });

  EngineConfig config;
  config.num_threads = num_threads;
  config.job_name = job_name;
  Engine<SvVertex> engine(config);

  SvResult result;
  result.stats = engine.Run(graph);
  result.rounds = result.stats.num_supersteps() / 4;
  result.component.resize(vertices.size());
  for (uint32_t p = 0; p < num_workers; ++p) {
    const std::vector<SvVertex>& part = graph.partition(p).vertices;
    for (uint32_t slot = 0; slot < part.size(); ++slot) {
      result.component[members[p][slot]] = part[slot].d;
    }
  }
  return result;
}

}  // namespace ppa
