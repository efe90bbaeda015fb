// Tests for the Pregel engine: supersteps, vote-to-halt/reactivation,
// aggregators, vertex removal and statistics, plus an equivalence grid
// against a serial reference engine.
#include "pregel/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pregel/convert.h"
#include "pregel/graph.h"
#include "util/hash.h"
#include "util/random.h"

namespace ppa {
namespace {

// Propagates the maximum vertex id through the graph (classic Pregel demo).
struct MaxVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<uint64_t> nbrs;
  uint64_t value = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    uint64_t best = (ctx.superstep() == 0) ? id : value;
    for (uint64_t m : msgs) best = std::max(best, m);
    if (best > value || ctx.superstep() == 0) {
      value = best;
      for (uint64_t n : nbrs) ctx.SendTo(n, value);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, MaxValuePropagation) {
  PartitionedGraph<MaxVertex> graph(4);
  // A path 1-2-3-4-5 plus isolated vertex 9.
  for (uint64_t id : {1, 2, 3, 4, 5, 9}) {
    MaxVertex v;
    v.id = id;
    if (id >= 2 && id <= 5) v.nbrs.push_back(id - 1);
    if (id >= 1 && id <= 4) v.nbrs.push_back(id + 1);
    graph.Add(std::move(v));
  }
  Engine<MaxVertex> engine({.num_threads = 2, .job_name = "max"});
  RunStats stats = engine.Run(graph);
  for (uint64_t id : {1, 2, 3, 4, 5}) {
    EXPECT_EQ(graph.Find(id)->value, 5u) << id;
  }
  EXPECT_EQ(graph.Find(9)->value, 9u);
  EXPECT_GT(stats.num_supersteps(), 3u);  // Path diameter forces rounds.
  EXPECT_GT(stats.total_messages(), 0u);
}

// Counts active vertices via an aggregator and reads it back next step.
struct AggVertex {
  using Message = uint8_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t seen_at_step1 = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint8_t>) {
    if (ctx.superstep() == 0) {
      ctx.Aggregate(0, 1);
      ctx.Aggregate(1, id);
      return;  // Stay active for one more superstep.
    }
    if (ctx.superstep() == 1) {
      seen_at_step1 = ctx.PrevAggregate(0) * 1000 + ctx.PrevAggregate(1);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, AggregatorSumsAcrossWorkers) {
  PartitionedGraph<AggVertex> graph(4);
  for (uint64_t id : {10, 20, 30}) {
    AggVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  Engine<AggVertex> engine({.num_threads = 2, .job_name = "agg"});
  engine.Run(graph);
  // Each vertex saw count=3 and sum=60 from the previous superstep.
  for (uint64_t id : {10, 20, 30}) {
    EXPECT_EQ(graph.Find(id)->seen_at_step1, 3u * 1000 + 60u);
  }
}

// RemoveSelf: vertex 1 removes itself in superstep 0, so a message sent to
// it afterwards is dropped, while one sent to a live vertex is delivered.
struct RemovingVertex {
  using Message = uint64_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint64_t got = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint64_t> msgs) {
    for (uint64_t m : msgs) got += m;
    if (ctx.superstep() == 0 && id == 1) {
      ctx.RemoveSelf();
      return;
    }
    if (ctx.superstep() == 0 && id == 2) {
      return;  // Stay active to send in superstep 1.
    }
    if (ctx.superstep() == 1 && id == 2) {
      ctx.SendTo(1, 7);  // Dropped: vertex 1 is removed.
      ctx.SendTo(3, 9);  // Delivered.
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, RemovedVertexDropsItsMessages) {
  PartitionedGraph<RemovingVertex> graph(2);
  for (uint64_t id : {1, 2, 3}) {
    RemovingVertex v;
    v.id = id;
    graph.Add(std::move(v));
  }
  Engine<RemovingVertex> engine({.num_threads = 1, .job_name = "remove"});
  const RunStats stats = engine.Run(graph);
  EXPECT_EQ(graph.Find(1), nullptr);
  const auto& part = graph.partition(PartitionOf(1, 2));
  EXPECT_EQ(part.vertices[part.index.Find(1)].got, 0u);
  ASSERT_NE(graph.Find(3), nullptr);
  EXPECT_EQ(graph.Find(3)->got, 9u);
  // Both messages count as sent; only one reached a Compute.
  ASSERT_GE(stats.supersteps.size(), 2u);
  EXPECT_EQ(stats.supersteps[1].messages_sent, 2u);
}

TEST(EngineTest, StatsTrackPerWorkerLoads) {
  PartitionedGraph<MaxVertex> graph(4);
  for (uint64_t id = 0; id < 64; ++id) {
    MaxVertex v;
    v.id = id;
    v.nbrs.push_back((id + 1) % 64);
    graph.Add(std::move(v));
  }
  Engine<MaxVertex> engine({.num_threads = 2, .job_name = "stats"});
  RunStats stats = engine.Run(graph);
  ASSERT_FALSE(stats.supersteps.empty());
  const SuperstepStats& first = stats.supersteps[0];
  EXPECT_EQ(first.active_vertices, 64u);
  ASSERT_EQ(first.worker_messages.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t m : first.worker_messages) sum += m;
  EXPECT_EQ(sum, first.messages_sent);
  EXPECT_EQ(first.message_bytes, first.messages_sent * sizeof(uint64_t));
}

// Aggregator sums must be deterministic regardless of how many OS threads
// execute the logical workers: slot totals are summed per worker at the
// barrier, never concurrently mutated.
TEST(EngineTest, AggregatorDeterministicUnderConcurrency) {
  constexpr uint64_t kVertices = 257;  // prime-ish: uneven partitions
  uint64_t expected_id_sum = 0;
  for (uint64_t id = 1; id <= kVertices; ++id) expected_id_sum += id * 3;

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    PartitionedGraph<AggVertex> graph(8);
    for (uint64_t id = 1; id <= kVertices; ++id) {
      AggVertex v;
      v.id = id * 3;
      graph.Add(std::move(v));
    }
    Engine<AggVertex> engine({.num_threads = threads, .job_name = "agg-mt"});
    engine.Run(graph);
    const uint64_t expected = kVertices * 1000 + expected_id_sum;
    for (uint64_t id = 1; id <= kVertices; ++id) {
      ASSERT_EQ(graph.Find(id * 3)->seen_at_step1, expected)
          << "threads=" << threads << " id=" << id * 3;
    }
  }
}

// ---- Reference engine -------------------------------------------------
//
// The straightforward form of the delivery contract in pregel/engine.h, run
// serially: per-vertex inbox vectors, an unordered_map index per partition,
// one scheduled flag per slot, messages dropped at delivery when the
// receiver is unknown or removed. Each superstep walks every slot of a
// partition in ascending order and computes the scheduled ones. It
// delivers every message by id, ignoring the slot of an addressed send, so
// the engine matching it shows that addressed sends reach their ids. The
// engine must match it in compute order, message order, vertex removals
// and every SuperstepStats field.

template <typename VertexT>
struct RefContext {
  using Message = typename VertexT::Message;

  uint32_t superstep() const { return step; }
  uint32_t num_workers() const { return workers; }
  uint32_t worker_id() const { return worker; }
  uint64_t num_vertices() const { return n_vertices; }
  uint32_t slot() const { return current_slot; }
  void SendTo(uint64_t dst, Message msg) {
    ++ops;
    outbox[PartitionOf(dst, workers)].emplace_back(dst, msg);
  }
  void SendTo(uint64_t dst, uint32_t /*slot*/, Message msg) {
    SendTo(dst, msg);
  }
  void VoteToHalt() { current->halted = true; }
  void RemoveSelf() { current->removed = current->halted = true; }
  void Aggregate(int slot, uint64_t delta) { agg[slot] += delta; }
  uint64_t PrevAggregate(int slot) const { return prev_agg[slot]; }

  uint32_t step = 0, workers = 0, worker = 0, current_slot = 0;
  uint64_t n_vertices = 0, ops = 0;
  VertexT* current = nullptr;
  std::array<uint64_t, kNumAggregatorSlots> agg{}, prev_agg{};
  std::vector<std::vector<std::pair<uint64_t, Message>>> outbox;
};

template <typename VertexT>
RunStats ReferenceRun(PartitionedGraph<VertexT>& graph,
                      uint32_t max_supersteps) {
  using Message = typename VertexT::Message;
  const uint32_t W = graph.num_workers();
  std::vector<std::unordered_map<uint64_t, uint32_t>> index(W);
  std::vector<std::vector<std::vector<Message>>> inbox(W);
  std::vector<std::vector<uint8_t>> scheduled(W);
  for (uint32_t p = 0; p < W; ++p) {
    const auto& vertices = graph.partition(p).vertices;
    for (uint32_t i = 0; i < vertices.size(); ++i) {
      index[p].emplace(vertices[i].id, i);
    }
    inbox[p].resize(vertices.size());
    scheduled[p].assign(vertices.size(), 1);
  }
  RunStats stats;
  std::array<uint64_t, kNumAggregatorSlots> prev_agg{};
  for (uint32_t step = 0; step < max_supersteps; ++step) {
    std::vector<RefContext<VertexT>> ctxs(W);
    SuperstepStats ss;
    ss.superstep = step;
    const uint64_t n_vertices = graph.size();
    for (uint32_t p = 0; p < W; ++p) {
      RefContext<VertexT>& ctx = ctxs[p];
      ctx.step = step;
      ctx.workers = W;
      ctx.worker = p;
      ctx.n_vertices = n_vertices;
      ctx.prev_agg = prev_agg;
      ctx.outbox.resize(W);
      for (uint32_t i = 0; i < scheduled[p].size(); ++i) {
        if (scheduled[p][i] == 0) continue;
        scheduled[p][i] = 0;
        VertexT& v = graph.partition(p).vertices[i];
        if (v.removed) continue;
        std::vector<Message>& msgs = inbox[p][i];
        if (v.halted && msgs.empty()) continue;
        v.halted = false;
        ++ss.active_vertices;
        ctx.current = &v;
        ctx.current_slot = i;
        ctx.ops += 1 + msgs.size();
        v.Compute(ctx, std::span<const Message>(msgs));
        msgs.clear();
        if (!v.halted && !v.removed) scheduled[p][i] = 1;
      }
    }
    prev_agg.fill(0);
    for (uint32_t p = 0; p < W; ++p) {
      uint64_t sent = 0;
      for (const auto& box : ctxs[p].outbox) sent += box.size();
      ss.messages_sent += sent;
      ss.message_bytes += sent * sizeof(Message);
      ss.compute_ops += ctxs[p].ops;
      ss.worker_messages.push_back(sent);
      ss.worker_bytes.push_back(sent * sizeof(Message));
      ss.worker_ops.push_back(ctxs[p].ops);
      for (int s = 0; s < kNumAggregatorSlots; ++s) {
        prev_agg[s] += ctxs[p].agg[s];
      }
    }
    const uint64_t staged = ss.messages_sent;
    stats.supersteps.push_back(ss);
    for (uint32_t d = 0; d < W; ++d) {
      for (uint32_t src = 0; src < W; ++src) {
        for (auto& [dst_id, msg] : ctxs[src].outbox[d]) {
          auto it = index[d].find(dst_id);
          if (it == index[d].end()) continue;
          if (graph.partition(d).vertices[it->second].removed) continue;
          inbox[d][it->second].push_back(msg);
          scheduled[d][it->second] = 1;
        }
      }
    }
    bool any_scheduled = false;
    for (const auto& flags : scheduled) {
      for (uint8_t f : flags) any_scheduled |= f != 0;
    }
    if (staged == 0 && !any_scheduled) break;
  }
  return stats;
}

// Per logical worker, one entry per Compute call: (superstep, id, slot,
// graph size, previous aggregates, then (from, seq, tag) of every message).
using TraceLog = std::vector<std::vector<std::vector<uint64_t>>>;

struct TraceMessage {
  uint64_t from = 0;
  uint32_t seq = 0;
  uint32_t tag = 0;
};

constexpr uint64_t kUnknownIdBase = 1ull << 62;  // Never a vertex id.
constexpr uint32_t kTraceActiveSteps = 10;       // Then everyone winds down.

// A vertex program that exercises every Context call from a seeded RNG
// keyed on (seed, vertex state, superstep), so the same run reproduces on
// any engine, worker count and thread count. It logs every Compute call.
// About half its sends to neighbours (some of them removed), to itself and
// to unknown ids are addressed.
struct TraceVertex {
  using Message = TraceMessage;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  std::vector<uint64_t> nbrs;
  std::vector<uint32_t> nbr_slots;  // Slot of nbrs[i] in its partition.
  uint64_t acc = 0;  // Folds in everything the vertex received.
  uint32_t computes = 0;
  uint32_t sent = 0;
  TraceLog* log = nullptr;

  auto Fields() const {
    return std::tie(id, halted, removed, nbrs, acc, computes, sent);
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const TraceMessage> msgs) {
    const uint32_t step = ctx.superstep();
    std::vector<uint64_t> entry = {step, id, ctx.slot(), ctx.num_vertices(),
                                   ctx.PrevAggregate(0), ctx.PrevAggregate(1)};
    for (const TraceMessage& m : msgs) {
      entry.insert(entry.end(), {m.from, m.seq, m.tag});
      acc = HashCombine(acc, HashCombine(m.from, (uint64_t{m.seq} << 32) |
                                                     m.tag));
    }
    (*log)[ctx.worker_id()].push_back(std::move(entry));
    ++computes;
    Rng rng(HashCombine(HashCombine(acc, id), step));
    ctx.Aggregate(0, 1);
    ctx.Aggregate(1, msgs.size());
    if (step >= kTraceActiveSteps) {
      ctx.VoteToHalt();
      return;
    }
    const double p = 0.7 * (kTraceActiveSteps - step) / kTraceActiveSteps;
    // By id, or with the receiver's slot, at random.
    auto send = [&](uint64_t dst, uint32_t slot) {
      const TraceMessage m{id, sent++, static_cast<uint32_t>(rng.Next())};
      if (rng.Bernoulli(0.5)) {
        ctx.SendTo(dst, slot, m);
      } else {
        ctx.SendTo(dst, m);
      }
    };
    for (size_t n = 0; n < nbrs.size(); ++n) {
      if (rng.Bernoulli(p)) send(nbrs[n], nbr_slots[n]);
      // Repeats keep send order.
      if (rng.Bernoulli(p / 4)) send(nbrs[n], nbr_slots[n]);
    }
    if (rng.Bernoulli(p / 3)) {
      send(kUnknownIdBase + rng.Below(8), IdSlotIndex::kAbsent);
    }
    if (rng.Bernoulli(p / 3)) send(id, ctx.slot());
    if (rng.Bernoulli(0.04)) {
      ctx.RemoveSelf();
    } else if (rng.Bernoulli(0.6)) {
      ctx.VoteToHalt();
    }
  }
};

// A seeded random graph: some vertices start halted (they compute only
// when messaged), some start removed (messages to them are dropped).
PartitionedGraph<TraceVertex> TraceGraph(uint64_t seed, uint32_t workers,
                                         TraceLog* log) {
  constexpr uint64_t kVertices = 240;
  Rng rng(seed);
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kVertices; ++i) ids.push_back(i * 7919 + seed);
  PartitionedGraph<TraceVertex> graph(workers);
  for (uint64_t id : ids) {
    TraceVertex v;
    v.id = id;
    v.log = log;
    const uint64_t degree = rng.Below(5);
    for (uint64_t e = 0; e < degree; ++e) {
      v.nbrs.push_back(ids[rng.Below(ids.size())]);
    }
    v.halted = rng.Bernoulli(0.2);
    v.removed = rng.Bernoulli(0.05);
    graph.Add(std::move(v));
  }
  for (uint32_t p = 0; p < workers; ++p) {
    for (TraceVertex& v : graph.partition(p).vertices) {
      for (uint64_t nbr : v.nbrs) {
        v.nbr_slots.push_back(
            graph.partition(PartitionOf(nbr, workers)).index.Find(nbr));
      }
    }
  }
  log->assign(workers, {});
  return graph;
}

void ExpectSameStats(const RunStats& want, const RunStats& got) {
  ASSERT_EQ(want.supersteps.size(), got.supersteps.size());
  for (size_t s = 0; s < want.supersteps.size(); ++s) {
    const SuperstepStats& a = want.supersteps[s];
    const SuperstepStats& b = got.supersteps[s];
    SCOPED_TRACE("superstep " + std::to_string(s));
    EXPECT_EQ(a.superstep, b.superstep);
    EXPECT_EQ(a.active_vertices, b.active_vertices);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.message_bytes, b.message_bytes);
    EXPECT_EQ(a.compute_ops, b.compute_ops);
    EXPECT_EQ(a.worker_messages, b.worker_messages);
    EXPECT_EQ(a.worker_bytes, b.worker_bytes);
    EXPECT_EQ(a.worker_ops, b.worker_ops);
  }
}

void ExpectEngineMatchesReference(uint64_t seed, uint32_t max_supersteps) {
  for (uint32_t workers : {1u, 3u, 16u}) {
    TraceLog want_log;
    PartitionedGraph<TraceVertex> want = TraceGraph(seed, workers, &want_log);
    const RunStats want_stats = ReferenceRun(want, max_supersteps);
    ASSERT_GT(want_stats.total_messages(), 0u);
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      TraceLog got_log;
      PartitionedGraph<TraceVertex> got = TraceGraph(seed, workers, &got_log);
      Engine<TraceVertex> engine({.num_threads = threads,
                                  .max_supersteps = max_supersteps,
                                  .job_name = "trace"});
      ExpectSameStats(want_stats, engine.Run(got));
      for (uint32_t p = 0; p < workers; ++p) {
        const auto& a = want_log[p];
        const auto& b = got_log[p];
        ASSERT_EQ(a.size(), b.size()) << "compute calls on worker " << p;
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "compute call " << i << " on worker " << p;
        }
        const auto& va = want.partition(p).vertices;
        const auto& vb = got.partition(p).vertices;
        ASSERT_EQ(va.size(), vb.size()) << "vertices on worker " << p;
        for (size_t i = 0; i < va.size(); ++i) {
          ASSERT_EQ(va[i].Fields(), vb[i].Fields()) << "slot " << i;
        }
      }
    }
  }
}

TEST(EngineEquivalenceTest, MatchesReferenceEngine) {
  for (uint64_t seed : {1, 2, 3}) {
    ExpectEngineMatchesReference(seed, 1u << 20);
  }
}

// A job cut by max_supersteps while messages are still in flight.
TEST(EngineEquivalenceTest, MatchesReferenceEngineWhenCut) {
  ExpectEngineMatchesReference(4, 5);
}

// What a one-worker WakeVertex job did and should have done, per superstep
// and per slot.
struct WakeLog {
  uint64_t seed = 0;
  std::vector<std::vector<uint32_t>> computed;  // Slots, in call order.
  std::vector<std::vector<uint8_t>> expected;   // 1: must be computed.
  std::vector<uint64_t> sent;                   // Messages sent to a slot.
  std::vector<uint64_t> received;               // Messages it received.

  void Expect(uint32_t step, uint32_t slot) {
    if (expected.size() <= step) expected.resize(step + 1);
    expected[step].resize(sent.size());
    expected[step][slot] = 1;
  }
};

constexpr uint32_t kWakeSteps = 12;  // Then every vertex halts.

// Stays active or halts, and wakes other vertices of its partition (often
// the first and the last slot), at random from (seed, id, superstep).
struct WakeVertex {
  using Message = uint32_t;  // The superstep it was sent in.
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  WakeLog* log = nullptr;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint32_t> msgs) {
    const uint32_t step = ctx.superstep();
    if (log->computed.size() <= step) log->computed.resize(step + 1);
    log->computed[step].push_back(ctx.slot());
    for (uint32_t sent_in : msgs) {
      EXPECT_EQ(sent_in + 1, step) << "slot " << ctx.slot();
      ++log->received[ctx.slot()];
    }
    if (step >= kWakeSteps) {
      ctx.VoteToHalt();
      return;
    }
    Rng rng(HashCombine(log->seed, HashCombine(id, step)));
    const uint32_t n = static_cast<uint32_t>(log->sent.size());
    auto wake = [&](uint32_t slot) {
      ctx.SendTo(slot, slot, step);  // One worker: id == slot.
      ++log->sent[slot];
      log->Expect(step + 1, slot);
    };
    if (rng.Bernoulli(0.1)) wake(0);
    if (rng.Bernoulli(0.1)) wake(n - 1);
    if (rng.Bernoulli(0.4)) wake(static_cast<uint32_t>(rng.Below(n)));
    if (rng.Bernoulli(0.3)) {
      log->Expect(step + 1, ctx.slot());  // Stays active.
    } else {
      ctx.VoteToHalt();
    }
  }
};

// The scheduling bitmap's word boundaries: partitions of one vertex, of a
// word less one, of one and two words and of a word more.
TEST(EngineTest, ComputesScheduledSlotsInAscendingOrder) {
  for (uint32_t n : {1u, 63u, 64u, 65u, 129u}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      WakeLog log;
      log.seed = seed;
      log.sent.assign(n, 0);
      log.received.assign(n, 0);
      PartitionedGraph<WakeVertex> graph(1);
      Rng rng(seed);
      for (uint32_t slot = 0; slot < n; ++slot) {
        // Some start halted, to be woken by a message; slot 0 starts active.
        const bool halted = slot != 0 && rng.Bernoulli(0.5);
        graph.Add(WakeVertex{.id = slot, .halted = halted, .log = &log});
        if (!halted) log.Expect(0, slot);
      }
      Engine<WakeVertex> engine({.num_threads = 1, .job_name = "wake"});
      const RunStats stats = engine.Run(graph);

      ASSERT_EQ(log.computed.size(), log.expected.size());
      for (uint32_t step = 0; step < log.computed.size(); ++step) {
        const std::vector<uint32_t>& got = log.computed[step];
        EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                                     std::greater_equal<uint32_t>()),
                  got.end())
            << "superstep " << step << " is not in ascending slot order";
        std::vector<uint32_t> want;
        for (uint32_t slot = 0; slot < n; ++slot) {
          if (log.expected[step][slot] != 0) want.push_back(slot);
        }
        EXPECT_EQ(got, want) << "superstep " << step;
        EXPECT_EQ(stats.supersteps[step].active_vertices, want.size());
      }
      EXPECT_EQ(log.received, log.sent);
      uint64_t total_sent = 0;
      for (uint64_t s : log.sent) total_sent += s;
      EXPECT_EQ(stats.total_messages(), total_sent);
    }
  }
}

// A slot past the end of the receiver's partition is a caller bug, which
// delivery must not turn into an out-of-bounds write.
struct BadSlotVertex {
  using Message = uint8_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint8_t>) {
    ctx.SendTo(id, 1000, 0);
    ctx.VoteToHalt();
  }
};

TEST(EngineDeathTest, SlotOutsideThePartitionAborts) {
  PartitionedGraph<BadSlotVertex> graph(1);
  graph.Add(BadSlotVertex{.id = 5});
  Engine<BadSlotVertex> engine({.num_threads = 1, .job_name = "bad-slot"});
  EXPECT_DEATH(engine.Run(graph), "PPA_CHECK failed");
}

// Sends by id to the vertex with the next id, which the engine resolves in
// the receiver partition's index.
struct NextIdVertex {
  using Message = uint8_t;
  uint64_t id = 0;
  bool halted = false;
  bool removed = false;
  uint32_t got = 0;

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const uint8_t> msgs) {
    got += static_cast<uint32_t>(msgs.size());
    if (ctx.superstep() == 0) ctx.SendTo(id + 1, 1);
    ctx.VoteToHalt();
  }
};

// A MirrorGraph job graph has no index until CopyIndex gives it one, so a
// send by id into it must abort, naming the job, instead of staging every
// message as absent; with the copy the same job delivers.
TEST(EngineDeathTest, SendByIdIntoAPartitionWithNoIndexAborts) {
  PartitionedGraph<NextIdVertex> src(3);
  for (uint64_t id = 1; id <= 12; ++id) src.Add(NextIdVertex{.id = id});
  auto mirror = [&src] {
    return MirrorGraph<NextIdVertex>(src, /*num_threads=*/1,
                                     [](const NextIdVertex&, NextIdVertex*) {});
  };
  Engine<NextIdVertex> engine({.num_threads = 1, .job_name = "unindexed"});
  auto job = mirror();
  EXPECT_DEATH(engine.Run(job), "PPA_CHECK failed.*job 'unindexed'");

  auto indexed = mirror();
  CopyIndex(src, &indexed);
  const RunStats stats = engine.Run(indexed);
  EXPECT_EQ(stats.total_messages(), 12u);
  for (uint64_t id = 2; id <= 12; ++id) EXPECT_EQ(indexed.Find(id)->got, 1u);
  EXPECT_EQ(indexed.Find(1)->got, 0u);
}

TEST(MirrorGraphTest, KeepsEverySlotAndSkipsRemovedVertices) {
  PartitionedGraph<MaxVertex> src(4);
  for (uint64_t id = 1; id <= 40; ++id) {
    MaxVertex v;
    v.id = id;
    v.value = id * 10;
    v.removed = (id % 3 == 0);  // Marked, not compacted.
    src.Add(std::move(v));
  }
  std::atomic<uint64_t> calls{0};
  auto dst = MirrorGraph<AggVertex>(
      src, /*num_threads=*/2, [&calls](const MaxVertex& v, AggVertex* a) {
        EXPECT_FALSE(v.removed);
        EXPECT_EQ(a->id, v.id);  // Set before make_fn runs.
        a->seen_at_step1 = v.value;
        calls.fetch_add(1);
      });
  EXPECT_EQ(calls.load(), src.live_size());

  uint64_t live = 0;
  uint64_t live_id_sum = 0;
  ASSERT_EQ(dst.num_workers(), src.num_workers());
  for (uint32_t p = 0; p < src.num_workers(); ++p) {
    const auto& from = src.partition(p).vertices;
    const auto& to = dst.partition(p).vertices;
    ASSERT_EQ(to.size(), from.size()) << "partition " << p;
    for (size_t slot = 0; slot < from.size(); ++slot) {
      EXPECT_EQ(to[slot].id, from[slot].id) << "slot " << slot;
      EXPECT_EQ(to[slot].removed, from[slot].removed) << "slot " << slot;
      // make_fn ran for live vertices only.
      const uint64_t made = from[slot].removed ? 0 : from[slot].value;
      EXPECT_EQ(to[slot].seen_at_step1, made);
      if (!from[slot].removed) {
        ++live;
        live_id_sum += from[slot].id;
      }
    }
  }
  // The job graph has no index of its own; after CopyIndex every id,
  // removed or not, resolves to its own slot.
  for (uint32_t p = 0; p < dst.num_workers(); ++p) {
    EXPECT_EQ(dst.partition(p).index.size(), 0u) << "partition " << p;
  }
  CopyIndex(src, &dst);
  for (uint64_t id = 1; id <= 40; ++id) {
    const uint32_t p = PartitionOf(id, dst.num_workers());
    const uint32_t slot = dst.partition(p).index.Find(id);
    ASSERT_NE(slot, IdSlotIndex::kAbsent) << id;
    EXPECT_EQ(slot, src.partition(p).index.Find(id));
    EXPECT_EQ(dst.partition(p).vertices[slot].id, id);
  }
  // The engine never computes a removed job vertex: the step-0 aggregate
  // counts the live vertices only.
  Engine<AggVertex> engine({.num_threads = 2, .job_name = "mirror"});
  engine.Run(dst);
  for (uint32_t p = 0; p < dst.num_workers(); ++p) {
    for (const AggVertex& v : dst.partition(p).vertices) {
      EXPECT_EQ(v.seen_at_step1, v.removed ? 0 : live * 1000 + live_id_sum);
    }
  }
}

TEST(IdSlotIndexTest, FirstMappingWins) {
  IdSlotIndex index;
  EXPECT_EQ(index.Find(7), IdSlotIndex::kAbsent);
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(index.Insert(uint64_t{i} * 16, i), i);  // Same partition bits.
  }
  EXPECT_EQ(index.Insert(32, 999), 2u);  // Duplicate keeps the first slot.
  EXPECT_EQ(index.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(index.Find(uint64_t{i} * 16), i);
  }
  EXPECT_EQ(index.Find(1), IdSlotIndex::kAbsent);
}

}  // namespace
}  // namespace ppa
