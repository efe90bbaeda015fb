// Simplified Shiloach-Vishkin connected components (Sec. II).
//
// The paper's variant drops the original S-V "star hooking" step: a forest
// of parent pointers D[v] is maintained; each round performs (1) tree
// hooking — for each edge (u,v), if w = D[u] is a tree root, hook w under a
// smaller neighbor parent — and (2) shortcutting — D[v] <- D[D[v]]. D[v]
// decreases monotonically and converges to the smallest vertex ID in v's
// connected component in O(log n) rounds.
//
// Pregel schedule (4 supersteps per round):
//   p0: apply hook messages and the saved grandparent shortcut (both as
//       min-updates, which keeps monotonicity even under stale values),
//       aggregate the number of changed D[v], then query D[v] for its parent;
//   p1: answer parent queries;
//   p2: record the grandparent; broadcast D[v] to neighbors;
//   p3: if own parent is a root, send a min-hook to it.
// Termination: a round in which no D[v] changed; every vertex observes the
// zero aggregate and votes to halt at the next p0.
//
// The caller builds the job graph. Partition p holds the vertices with
// PartitionOf(id) == p, in any order, and each vertex carries at most two
// undirected neighbors, each as its id and its slot in its own partition
// (IdSlotIndex::kAbsent: a neighbor the job does not hold, whose
// announcements are counted and dropped). Every send is addressed
// (pregel/engine.h): a vertex keeps the slot of its D[v] and grandparent
// beside their ids, and each 16-byte message names one vertex by id and
// slot (a query its sender, the others the D[] value they carry). So the
// job graph needs no id index. In superstep 0 each vertex sets D[v] to its
// own id and slot; when the job ends, d is its component label.
#ifndef PPA_CORE_SV_H_
#define PPA_CORE_SV_H_

#include <cstdint>
#include <span>
#include <string>

#include "pregel/graph.h"
#include "pregel/stats.h"
#include "util/logging.h"

namespace ppa {

struct SvMessage {
  enum Type : uint8_t { kQuery = 0, kReply = 1, kAnnounce = 2, kHook = 3 };
  uint8_t type = 0;
  uint32_t slot = 0;   // Slot of the vertex `value` names.
  uint64_t value = 0;  // kQuery: sender id; others: a D[] value.
};
// Tables II/III count message bytes, so a new field must fit the padding.
static_assert(sizeof(SvMessage) == 16);

struct SvVertex {
  using Message = SvMessage;

  uint64_t id = 0;
  // The neighbors' {id, slot} pairs, held as two arrays so that the vertex
  // stays 64 B; the first num_neighbors entries are set.
  uint64_t neighbor[2] = {0, 0};
  uint64_t d = 0;            // Parent pointer D[v] (set in superstep 0).
  uint64_t grandparent = 0;  // D[D[v]] learned at p2 of this round.
  uint32_t neighbor_slot[2] = {IdSlotIndex::kAbsent, IdSlotIndex::kAbsent};
  uint32_t d_slot = 0;
  uint32_t grandparent_slot = 0;
  uint8_t num_neighbors = 0;
  bool round_changed = true;  // Whether the last round changed any D[v].
  bool halted = false;
  bool removed = false;
  bool done = false;

  void AddNeighbor(uint64_t nbr, uint32_t slot) {
    PPA_CHECK(num_neighbors < 2);
    neighbor[num_neighbors] = nbr;
    neighbor_slot[num_neighbors] = slot;
    ++num_neighbors;
  }

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
        if (ctx.superstep() == 0) {
          d = grandparent = id;
          d_slot = grandparent_slot = ctx.slot();
        }
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
          if (!round_changed) {
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
        round_changed = ctx.PrevAggregate(0) != 0;
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
        for (uint8_t i = 0; i < num_neighbors; ++i) {
          ctx.SendTo(neighbor[i], neighbor_slot[i],
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
// The S-V method labels every unambiguous vertex with one of these.
static_assert(sizeof(SvVertex) <= 64);

/// Runs the simplified S-V algorithm on `graph`, whose vertices then hold
/// their component labels in `d`. A round is 4 supersteps of the result.
RunStats RunSimplifiedSv(PartitionedGraph<SvVertex>& graph,
                         unsigned num_threads, const std::string& job_name);

}  // namespace ppa

#endif  // PPA_CORE_SV_H_
