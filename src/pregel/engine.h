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
// each partition's mutable state (context and outboxes, compute list,
// scheduling bitmap, per-slot inbox ends, inbox) sits in one
// cache-line-aligned PartitionState that only the partition's thread of the
// current phase writes, and counters are kept in locals and published once
// per partition per phase.
//
// Delivery contract:
//   * Addressing. Every message is staged with its receiver's slot in the
//     receiver's partition. SendTo(id, slot, msg) takes the slot from the
//     sender, which knows it (a job that mirrors the assembly graph reads
//     its neighbours' slots from the graph's index when it is built).
//     SendTo(id, msg) resolves the slot on the sender's thread, in the
//     IdSlotIndex of the receiver's partition, which no one writes during
//     Run. So delivery never looks up an id. A job graph from MirrorGraph
//     has empty indexes until CopyIndex fills them (pregel/convert.h), so
//     SendTo(id, msg) into a partition that holds vertices but no index
//     aborts with a PPA_CHECK naming the job, instead of staging every
//     message as absent.
//   * Order. A vertex receives its messages ordered by source worker, then
//     by send order within that worker. Each partition computes its
//     scheduled vertices (those that did not vote to halt, and the halted
//     vertices a message woke) in ascending slot order.
//   * Drops. A message to an id that its partition does not hold is still
//     staged, with slot IdSlotIndex::kAbsent, and is dropped at delivery;
//     one to a removed vertex is dropped at compute, where the removed
//     vertex is skipped. Neither reaches Compute or counts in compute_ops.
//     messages_sent counts every message staged by a sender, dropped or
//     not.
//   * Cost. A vertex that stays active sets its bit in its partition's
//     scheduling bitmap. Delivery into partition d reads each staged slot
//     once, setting the receiver's bit and counting its messages in a
//     per-slot array; walks the set bits upward, which yields the next
//     compute list and turns each count into an inbox offset; and scatters
//     the messages stably into one flat CSR inbox in slot order. The
//     compute loop sweeps the partition's vertices upward and reads the
//     inbox front to back. A superstep costs O(computed vertices +
//     delivered messages + slots/64): the bitmap scan, one word per 64
//     slots, is the only walk over all slots, so jobs with tiny frontiers
//     (tip removal, the propagation baseline) stay cheap. RunStats splits
//     each job's wall time into compute_seconds and delivery_seconds.
//   * Reuse. Outboxes, the CSR inbox and the compute lists are cleared in
//     place each superstep and keep their capacity until Run returns.
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
#include <bit>
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
    /// resolving its slot in the index of dst's partition, which must have
    /// one if it holds vertices.
    void SendTo(uint64_t dst, Message msg) {
      const uint32_t d = PartitionOf(dst, num_workers_);
      const auto& part = graph_->partition(d);
      PPA_CHECK_MSG(part.index.size() != 0 || part.vertices.empty(),
                    "job '" + *job_name_ +
                        "' sends by id into a partition with no id index");
      Stage(d, part.index.Find(dst), std::move(msg));
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
    const std::string* job_name_ = nullptr;
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
    ThreadPool pool(config_.num_threads);

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
      st.ctx.job_name_ = &config_.job_name;
      st.ctx.graph_ = &graph;
      st.ctx.outbox_.resize(W);
      st.compute.resize(n);
      std::iota(st.compute.begin(), st.compute.end(), 0u);
      st.scheduled.assign((n + 63) / 64, 0);
      st.inbox_end.assign(n, 0);
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
        uint32_t begin = 0;
        uint64_t active = 0;
        for (const uint32_t i : st.compute) {
          const uint32_t end = std::exchange(st.inbox_end[i], 0);
          const std::span<const Message> msgs(inbox + begin, inbox + end);
          begin = end;
          VertexT& v = vertices[i];
          if (v.removed) continue;  // Drops the messages sent to it.
          if (v.halted && msgs.empty()) continue;
          v.halted = false;
          ++active;
          ctx.current_ = &v;
          ctx.slot_ = i;
          ctx.ops_ += 1 + msgs.size();
          v.Compute(ctx, msgs);
          if (!v.halted && !v.removed) st.Schedule(i);
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
        const uint32_t n_slots = static_cast<uint32_t>(st.inbox_end.size());

        // Schedule each receiver and count its messages.
        for (const PartitionState& src : parts) {
          for (const uint32_t slot : src.ctx.outbox_[d].slots) {
            if (slot < n_slots) {
              st.Schedule(slot);
              ++st.inbox_end[slot];
            } else {
              PPA_CHECK(slot == IdSlotIndex::kAbsent);
            }
          }
        }

        // The set bits, in ascending order, are the next compute list; an
        // exclusive prefix sum over them turns each count into an offset.
        // The scan leaves the bitmap clear.
        st.compute.clear();
        uint32_t total = 0;
        for (size_t w = 0; w < st.scheduled.size(); ++w) {
          for (uint64_t bits = std::exchange(st.scheduled[w], 0); bits != 0;
               bits &= bits - 1) {
            const uint32_t slot =
                static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
            st.compute.push_back(slot);
            total += std::exchange(st.inbox_end[slot], total);
          }
        }

        // A stable scatter that leaves inbox_end[slot] at the end of the
        // slot's run (kAbsent: dropped).
        if (st.inbox.size() < total) st.inbox.resize(total);
        for (PartitionState& src : parts) {
          auto& box = src.ctx.outbox_[d];
          for (size_t j = 0; j < box.slots.size(); ++j) {
            const uint32_t slot = box.slots[j];
            if (slot < n_slots) {
              st.inbox[st.inbox_end[slot]++] = std::move(box.msgs[j]);
            }
          }
        }
      });
      stats.delivery_seconds += phase.Seconds();

      bool any_scheduled = false;
      for (const PartitionState& st : parts) {
        any_scheduled = any_scheduled || !st.compute.empty();
      }
      // Termination: nothing in flight and nothing scheduled.
      if (staged_messages == 0 && !any_scheduled) break;
    }

    stats.wall_seconds = timer.Seconds();
    return stats;
  }

 private:
  // Everything partition p mutates in a superstep, on cache lines of its
  // own. In the compute phase only p's thread writes it (ctx, the bits of
  // vertices that stay active, the inbox ends it zeroes, `active`); in the
  // delivery phase only the thread delivering into p (scheduled,
  // inbox_end, compute and the inbox), which also moves messages out of
  // every source's outbox_[p].
  struct alignas(64) PartitionState {
    Context ctx;
    // This superstep's compute list (ascending slots) and its CSR inbox:
    // the messages of compute[k] end at inbox_end[compute[k]] and start
    // where those of compute[k - 1] end (compute[0]: at 0).
    std::vector<uint32_t> compute;
    std::vector<Message> inbox;  // High-water size.
    // One bit per slot, set for each vertex the next superstep computes;
    // the delivery scan clears it.
    std::vector<uint64_t> scheduled;
    // Per slot, zero unless scheduled: delivery fills in the slot's message
    // count, turns it into its inbox offset, then advances it to its inbox
    // end, which the compute loop reads and zeroes.
    std::vector<uint32_t> inbox_end;
    uint64_t active = 0;  // Vertices computed this superstep.

    void Schedule(uint32_t slot) {
      scheduled[slot / 64] |= uint64_t{1} << (slot % 64);
    }
  };

  EngineConfig config_;
};

}  // namespace ppa

#endif  // PPA_PREGEL_ENGINE_H_
