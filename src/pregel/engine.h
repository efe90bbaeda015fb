// The Pregel execution engine (in-process Pregel+ stand-in).
//
// Executes a vertex program in supersteps over a PartitionedGraph:
//   * each active vertex v gets Compute(ctx, msgs) called with the messages
//     sent to it in the previous superstep;
//   * Compute may send messages, vote to halt, aggregate values or remove
//     the vertex;
//   * a halted vertex is reactivated by an incoming message;
//   * the job terminates when every vertex is halted and no message is in
//     flight (or max_supersteps is hit).
//
// The `num_workers` logical workers of the graph are the distribution unit
// the paper scales (16..64); they are multiplexed onto up to `num_threads`
// OS threads. A superstep is a compute phase (one thread per partition at a
// time), a serial barrier (stats, aggregators) and a delivery phase (one
// thread per destination partition at a time). Neither phase takes a lock:
// each partition's mutable state (context and outboxes, compute list, next
// list and next-list positions, inbox) sits in one cache-line-aligned
// PartitionState that only the partition's thread of the current phase
// writes, and counters are kept in locals and published once per partition
// per phase.
//
// Delivery contract:
//   * Addressing. Every message is staged with its receiver's slot in the
//     receiver's partition. SendTo(id, slot, msg) takes the slot from the
//     sender, which knows it (a job that mirrors the assembly graph reads
//     its neighbours' slots from the graph's index when it is built).
//     SendTo(id, msg) resolves the slot on the sender's thread, in the
//     IdSlotIndex of the receiver's partition, which no one writes during
//     Run. So delivery never looks up an id.
//   * Order. A vertex receives its messages ordered by source worker, then
//     by send order within that worker. Each partition computes, in order,
//     the vertices that did not vote to halt (in the previous superstep's
//     compute order), then the halted vertices a message woke (in
//     first-arrival order).
//   * Drops. A message to an id that its partition does not hold is still
//     staged, with slot IdSlotIndex::kAbsent, and is dropped at delivery;
//     one to a removed vertex is dropped at compute, where the removed
//     vertex is skipped. Neither reaches Compute or counts in compute_ops.
//     messages_sent counts every message staged by a sender, dropped or
//     not.
//   * Cost. Delivery into partition d reads each staged slot once, appends
//     receivers not yet scheduled to the next compute list (in
//     first-arrival order), counts each receiver's messages at its position
//     in that list, prefix-sums the counts and scatters the messages stably
//     into one flat array. This CSR inbox is in compute order: Compute gets
//     a span of it, and the compute loop reads it front to back. A
//     superstep costs O(computed vertices + delivered messages) and never
//     walks all slots of a partition, so jobs with tiny frontiers (tip
//     removal, the propagation baseline) stay cheap. RunStats splits each
//     job's wall time into compute_seconds and delivery_seconds.
//   * Reuse. Outboxes, the CSR inbox arrays and the compute lists are
//     cleared in place each superstep and keep their capacity until Run
//     returns.
//
// VertexT contract:
//   struct V {
//     using Message = ...;                  // trivially copyable preferred
//     uint64_t id;                          // unique vertex ID
//     bool halted = false;                  // vote-to-halt flag
//     bool removed = false;                 // lazy deletion flag
//     void Compute(Context& ctx, std::span<const Message> msgs);
//   };
// Compute may call ctx.slot() for the vertex's own slot, which it can pass
// to a receiver that answers with SendTo(id, slot, msg). That slot must be
// the receiver's slot in partition PartitionOf(id), or kAbsent for an id
// the partition does not hold; delivery aborts on any other out-of-range
// slot. Each SendTo stages exactly one message, and the vertex set is
// fixed for the run (num_vertices() is read once, when Run starts).
#ifndef PPA_PREGEL_ENGINE_H_
#define PPA_PREGEL_ENGINE_H_

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pregel/graph.h"
#include "pregel/stats.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ppa {

/// Number of aggregator slots available to a job (sum semantics; Pregel's
/// aggregator mechanism, Sec. II). Slot values aggregated in superstep S are
/// readable in superstep S+1 via Context::PrevAggregate.
inline constexpr int kNumAggregatorSlots = 4;

/// Engine configuration.
struct EngineConfig {
  unsigned num_threads = 0;  // 0 = hardware concurrency.
  uint32_t max_supersteps = 1u << 20;
  std::string job_name = "pregel-job";
};

template <typename VertexT>
class Engine {
 public:
  using Message = typename VertexT::Message;

  /// Per-partition compute context handed to VertexT::Compute.
  class Context {
   public:
    uint32_t superstep() const { return superstep_; }
    uint32_t num_workers() const { return num_workers_; }
    uint32_t worker_id() const { return worker_id_; }
    uint64_t num_vertices() const { return num_vertices_; }
    /// Slot of the current vertex in its partition (worker_id()).
    uint32_t slot() const { return slot_; }

    /// Sends `msg` to the vertex with id `dst` (delivered next superstep),
    /// resolving its slot in the index of dst's partition.
    void SendTo(uint64_t dst, Message msg) {
      const uint32_t d = PartitionOf(dst, num_workers_);
      Stage(d, graph_->partition(d).index.Find(dst), std::move(msg));
    }

    /// Sends `msg` to the vertex with id `dst` at `slot` of its partition
    /// (IdSlotIndex::kAbsent: an id that partition does not hold).
    void SendTo(uint64_t dst, uint32_t slot, Message msg) {
      Stage(PartitionOf(dst, num_workers_), slot, std::move(msg));
    }

    /// Current vertex votes to halt; it is reactivated by any message.
    void VoteToHalt() { current_->halted = true; }

    /// Removes the current vertex at the barrier (messages already sent to
    /// it are dropped).
    void RemoveSelf() {
      current_->removed = true;
      current_->halted = true;
    }

    /// Adds `delta` to aggregator `slot` (summed across all vertices this
    /// superstep; visible next superstep through PrevAggregate).
    void Aggregate(int slot, uint64_t delta) { agg_[slot] += delta; }

    /// Value aggregated into `slot` during the previous superstep.
    uint64_t PrevAggregate(int slot) const { return prev_agg_[slot]; }

   private:
    friend class Engine;

    // Messages staged for one destination partition, in send order: each
    // receiver's slot there (kAbsent: unknown id) and the message.
    struct Outbox {
      std::vector<uint32_t> slots;
      std::vector<Message> msgs;
    };

    void Stage(uint32_t d, uint32_t slot, Message msg) {
      ++ops_;
      outbox_[d].slots.push_back(slot);
      outbox_[d].msgs.push_back(std::move(msg));
    }

    uint32_t superstep_ = 0;
    uint32_t num_workers_ = 0;
    uint32_t worker_id_ = 0;
    uint32_t slot_ = 0;
    uint64_t num_vertices_ = 0;
    const PartitionedGraph<VertexT>* graph_ = nullptr;
    VertexT* current_ = nullptr;
    uint64_t ops_ = 0;
    std::array<uint64_t, kNumAggregatorSlots> agg_{};
    std::array<uint64_t, kNumAggregatorSlots> prev_agg_{};
    std::vector<Outbox> outbox_;  // By destination partition.
  };

  explicit Engine(EngineConfig config = {}) : config_(std::move(config)) {}

  /// Runs the job to termination; the graph is mutated in place. See the
  /// delivery contract at the top of this file.
  RunStats Run(PartitionedGraph<VertexT>& graph) {
    Timer timer;
    const uint32_t W = graph.num_workers();
    ThreadPool pool(config_.num_threads == 0 ? ThreadPool::DefaultThreads()
                                             : config_.num_threads);

    RunStats stats;
    stats.job_name = config_.job_name;

    const uint64_t n_vertices = graph.size();
    std::vector<PartitionState> parts(W);
    for (uint32_t p = 0; p < W; ++p) {
      PartitionState& st = parts[p];
      const size_t n = graph.partition(p).vertices.size();
      st.ctx.num_workers_ = W;
      st.ctx.worker_id_ = p;
      st.ctx.num_vertices_ = n_vertices;
      st.ctx.graph_ = &graph;
      st.ctx.outbox_.resize(W);
      st.compute.resize(n);
      std::iota(st.compute.begin(), st.compute.end(), 0u);
      st.ends.assign(n, 0);
      st.next_pos.assign(n, kNotNext);
    }
    std::array<uint64_t, kNumAggregatorSlots> prev_agg{};

    for (uint32_t step = 0; step < config_.max_supersteps; ++step) {
      // --- Compute phase -------------------------------------------------
      Timer phase;
      pool.Run(W, [&](uint32_t p) {
        PartitionState& st = parts[p];
        Context& ctx = st.ctx;
        ctx.superstep_ = step;
        ctx.ops_ = 0;
        ctx.agg_.fill(0);
        ctx.prev_agg_ = prev_agg;
        for (auto& box : ctx.outbox_) {
          box.slots.clear();
          box.msgs.clear();
        }

        std::vector<VertexT>& vertices = graph.partition(p).vertices;
        const Message* inbox = st.inbox.data();
        const size_t n_compute = st.compute.size();
        uint32_t begin = 0;
        uint64_t active = 0;
        for (size_t k = 0; k < n_compute; ++k) {
          if (k + kPrefetchDistance < n_compute) {
            __builtin_prefetch(&vertices[st.compute[k + kPrefetchDistance]]);
          }
          const uint32_t i = st.compute[k];
          const std::span<const Message> msgs(inbox + begin,
                                              inbox + st.ends[k]);
          begin = st.ends[k];
          st.next_pos[i] = kNotNext;  // Delivery may schedule it again.
          VertexT& v = vertices[i];
          if (v.removed) continue;  // Drops the messages sent to it.
          if (v.halted && msgs.empty()) continue;
          v.halted = false;
          ++active;
          ctx.current_ = &v;
          ctx.slot_ = i;
          ctx.ops_ += 1 + msgs.size();
          v.Compute(ctx, msgs);
          if (!v.halted && !v.removed) {
            st.next_pos[i] = static_cast<uint32_t>(st.next.size());
            st.next.push_back(i);
          }
        }
        st.active = active;
      });
      stats.compute_seconds += phase.Seconds();

      // --- Barrier: stats, aggregators ------------------------------------
      SuperstepStats ss;
      ss.superstep = step;
      ss.worker_messages.resize(W);
      ss.worker_bytes.resize(W);
      ss.worker_ops.resize(W);
      prev_agg.fill(0);
      for (uint32_t p = 0; p < W; ++p) {
        const Context& ctx = parts[p].ctx;
        uint64_t sent = 0;
        for (const auto& box : ctx.outbox_) sent += box.slots.size();
        ss.active_vertices += parts[p].active;
        ss.messages_sent += sent;
        ss.message_bytes += sent * sizeof(Message);
        ss.compute_ops += ctx.ops_;
        ss.worker_messages[p] = sent;
        ss.worker_bytes[p] = sent * sizeof(Message);
        ss.worker_ops[p] = ctx.ops_;
        for (int s = 0; s < kNumAggregatorSlots; ++s) {
          prev_agg[s] += ctx.agg_[s];
        }
      }
      const uint64_t staged_messages = ss.messages_sent;
      stats.supersteps.push_back(std::move(ss));

      // --- Delivery phase: staged messages -> CSR inboxes ----------------
      phase.Reset();
      pool.Run(W, [&](uint32_t d) {
        PartitionState& st = parts[d];
        const uint32_t n_slots = static_cast<uint32_t>(st.next_pos.size());

        // Schedule receivers not yet in the next list (appending them in
        // first-arrival order), count each receiver's messages at its
        // next-list position and overwrite each staged slot with that
        // position (kNotNext: dropped).
        st.ends.assign(st.next.size(), 0);
        for (PartitionState& src : parts) {
          for (uint32_t& slot : src.ctx.outbox_[d].slots) {
            uint32_t k = kNotNext;
            if (slot < n_slots) {
              k = st.next_pos[slot];
              if (k == kNotNext) {
                k = st.next_pos[slot] = static_cast<uint32_t>(st.next.size());
                st.next.push_back(slot);
                st.ends.push_back(0);
              }
              ++st.ends[k];
            } else {
              PPA_CHECK(slot == IdSlotIndex::kAbsent);
            }
            slot = k;
          }
        }

        // Exclusive prefix sum, then a stable scatter that leaves ends[k]
        // at the end of the run of next[k].
        uint32_t total = 0;
        for (uint32_t& e : st.ends) total += std::exchange(e, total);
        if (st.inbox.size() < total) st.inbox.resize(total);
        for (PartitionState& src : parts) {
          auto& box = src.ctx.outbox_[d];
          for (size_t j = 0; j < box.slots.size(); ++j) {
            const uint32_t k = box.slots[j];
            if (k != kNotNext) st.inbox[st.ends[k]++] = std::move(box.msgs[j]);
          }
        }
      });
      stats.delivery_seconds += phase.Seconds();

      bool any_scheduled = false;
      for (PartitionState& st : parts) {
        std::swap(st.compute, st.next);
        st.next.clear();
        any_scheduled = any_scheduled || !st.compute.empty();
      }
      // Termination: nothing in flight and nothing scheduled.
      if (staged_messages == 0 && !any_scheduled) break;
    }

    stats.wall_seconds = timer.Seconds();
    return stats;
  }

 private:
  static constexpr uint32_t kNotNext = UINT32_MAX;
  // How many compute-list entries ahead the compute loop prefetches.
  static constexpr size_t kPrefetchDistance = 8;

  // Everything partition p mutates in a superstep, on cache lines of its
  // own. In the compute phase only p's thread writes it (ctx, next,
  // next_pos, `active`); in the delivery phase only the thread delivering
  // into p (next, next_pos and the inbox), which also moves messages out
  // of every source's outbox_[p] and overwrites its staged slots.
  struct alignas(64) PartitionState {
    Context ctx;
    // This superstep's compute list and its CSR inbox: the messages of
    // compute[k] are inbox[k == 0 ? 0 : ends[k - 1], ends[k]).
    std::vector<uint32_t> compute;
    std::vector<uint32_t> ends;
    std::vector<Message> inbox;  // High-water size.
    // The next superstep's compute list, and each slot's position in it.
    std::vector<uint32_t> next;
    std::vector<uint32_t> next_pos;  // Per slot: index in next or kNotNext.
    uint64_t active = 0;             // Vertices computed this superstep.
  };

  EngineConfig config_;
};

}  // namespace ppa

#endif  // PPA_PREGEL_ENGINE_H_
