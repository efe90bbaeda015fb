#include "core/sv.h"

#include <algorithm>
#include <span>

#include "pregel/engine.h"
#include "pregel/graph.h"

namespace ppa {

namespace {

struct SvMessage {
  enum Type : uint8_t { kQuery = 0, kReply = 1, kAnnounce = 2, kHook = 3 };
  uint8_t type = 0;
  uint64_t value = 0;  // kQuery: sender id; others: a D[] value.
};

struct SvVertex {
  using Message = SvMessage;

  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  std::vector<uint64_t> neighbors;
  uint64_t d = 0;              // Parent pointer D[v].
  uint64_t grandparent = 0;    // D[D[v]] learned at p2 of this round.
  uint64_t round_changes = 1;  // Last observed global change count.
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
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kHook) new_d = std::min(new_d, m.value);
        }
        if (ctx.superstep() >= 4) {
          new_d = std::min(new_d, grandparent);
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
        ctx.Aggregate(0, changed);
        ctx.SendTo(d, SvMessage{SvMessage::kQuery, id});
        break;
      }
      case 1: {
        // Record the change count aggregated at p0 (read at the next p0).
        round_changes = ctx.PrevAggregate(0);
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kQuery) {
            ctx.SendTo(m.value, SvMessage{SvMessage::kReply, d});
          }
        }
        break;
      }
      case 2: {
        for (const SvMessage& m : msgs) {
          if (m.type == SvMessage::kReply) grandparent = m.value;
        }
        for (uint64_t nbr : neighbors) {
          ctx.SendTo(nbr, SvMessage{SvMessage::kAnnounce, d});
        }
        break;
      }
      case 3: {
        // Tree hooking: if our parent w is a root (its parent is itself,
        // i.e. grandparent == d), propose the smallest neighbor parent.
        if (grandparent == d) {
          uint64_t best = d;
          for (const SvMessage& m : msgs) {
            if (m.type == SvMessage::kAnnounce) {
              best = std::min(best, m.value);
            }
          }
          if (best < d) {
            ctx.SendTo(d, SvMessage{SvMessage::kHook, best});
          }
        }
        break;
      }
    }
  }
};

}  // namespace

SvResult RunSimplifiedSv(const std::vector<SvInput>& vertices,
                         uint32_t num_workers, unsigned num_threads,
                         const std::string& job_name) {
  PartitionedGraph<SvVertex> graph(num_workers);
  for (const SvInput& in : vertices) {
    SvVertex v;
    v.id = in.id;
    v.d = in.id;
    v.grandparent = in.id;
    v.neighbors = in.neighbors;
    graph.Add(std::move(v));
  }

  EngineConfig config;
  config.num_threads = num_threads;
  config.job_name = job_name;
  Engine<SvVertex> engine(config);

  SvResult result;
  result.stats = engine.Run(graph);
  result.rounds = result.stats.num_supersteps() / 4;
  // Each partition holds its inputs in input order, so walking the inputs
  // with one cursor per partition meets every vertex at its slot.
  std::vector<uint32_t> cursor(num_workers, 0);
  result.component.reserve(vertices.size());
  for (const SvInput& in : vertices) {
    const uint32_t p = PartitionOf(in.id, num_workers);
    result.component.push_back(graph.partition(p).vertices[cursor[p]++].d);
  }
  return result;
}

}  // namespace ppa
