// Tests for the lock-free bounded ring (util/mpsc_ring.h) and its
// integration into CounterSession. The standalone properties: per-producer
// FIFO order, exact capacity (N pushes fit, the N+1st is refused until a
// pop), move-only payloads, and no payload retained by the ring after a
// pop. The stress tests run real producer/consumer threads and are in the
// TSan CI job — the acquire/release protocol is the thing under test.
#include "util/mpsc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbg/kmer_counter.h"
#include "dna/superkmer.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "spill/spill.h"

namespace ppa {
namespace {

TEST(MpscRingTest, FifoOrderSingleThread) {
  MpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(int{i}));
  EXPECT_FALSE(ring.Empty());
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.Empty());
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(MpscRingTest, FullAtExactlyCapacityAndValueUntouchedOnRefusal) {
  MpscRing<std::string> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(std::to_string(i)));
  }
  EXPECT_TRUE(ring.Full());
  std::string refused = "keep-me";
  EXPECT_FALSE(ring.TryPush(std::move(refused)));
  EXPECT_EQ(refused, "keep-me");  // failed push must not consume the value
  std::string out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, "0");
  EXPECT_FALSE(ring.Full());
  EXPECT_TRUE(ring.TryPush(std::move(refused)));
  // Wrap-around several laps: order survives the index masking.
  for (int lap = 0; lap < 25; ++lap) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_TRUE(ring.TryPush(std::string(out)));
  }
}

TEST(MpscRingTest, MoveOnlyPayloadAndNoRetentionAfterPop) {
  MpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(41)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 41);

  // The ring must drop its reference on pop, not a full lap later — chunk
  // payloads own large heap buffers.
  MpscRing<std::shared_ptr<int>> shared_ring(4);
  auto tracked = std::make_shared<int>(7);
  EXPECT_TRUE(shared_ring.TryPush(std::shared_ptr<int>(tracked)));
  EXPECT_EQ(tracked.use_count(), 2);
  std::shared_ptr<int> popped;
  ASSERT_TRUE(shared_ring.TryPop(&popped));
  EXPECT_EQ(tracked.use_count(), 2);  // ours + popped; none left in the ring
}

// Multi-producer / single-consumer stress: every producer's stream arrives
// complete and in that producer's order, under sustained full-queue
// backpressure (capacity far below the item count). Run under TSan in CI.
TEST(MpscRingTest, MultiProducerStressPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  MpscRing<uint64_t> ring(16);  // tiny: forces constant full/empty races
  std::atomic<int> live_producers{kProducers};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t tagged = (static_cast<uint64_t>(p) << 32) | i;
        while (!ring.TryPush(std::move(tagged))) {
          std::this_thread::yield();
        }
      }
      live_producers.fetch_sub(1, std::memory_order_release);
    });
  }

  std::vector<uint64_t> next(kProducers, 0);
  uint64_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    uint64_t value;
    if (!ring.TryPop(&value)) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(value >> 32);
    const uint64_t seq = value & 0xFFFFFFFFu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
    ++next[p];
    ++popped;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(live_producers.load(), 0);
  EXPECT_TRUE(ring.Empty());
}

// ---------------------------------------------------------------------------
// CounterSession integration
// ---------------------------------------------------------------------------

using Pair = std::pair<uint64_t, uint32_t>;

std::vector<std::vector<Pair>> SortedPartitions(const MerCounts& counts) {
  std::vector<std::vector<Pair>> out;
  out.reserve(counts.size());
  for (const auto& part : counts) {
    std::vector<Pair> sorted(part.begin(), part.end());
    std::sort(sorted.begin(), sorted.end());
    out.push_back(std::move(sorted));
  }
  return out;
}

std::vector<Read> SimulatedReads(uint64_t genome_length, double coverage,
                                 uint64_t seed) {
  GenomeConfig genome_config;
  genome_config.length = genome_length;
  genome_config.seed = seed;
  PackedSequence reference = GenerateGenome(genome_config);
  ReadSimConfig read_config;
  read_config.coverage = coverage;
  read_config.error_rate = 0.01;
  read_config.seed = seed + 1;
  return SimulateReads(reference, read_config);
}

MerCounts RunSession(const std::vector<Read>& reads,
                     const KmerCountConfig& config, uint64_t max_queued_bytes,
                     unsigned add_threads, KmerCountStats* stats) {
  CounterSession session(config, max_queued_bytes);
  if (add_threads <= 1) {
    session.AddBatch(reads);
  } else {
    std::vector<std::thread> adders;
    const size_t per = (reads.size() + add_threads - 1) / add_threads;
    for (unsigned t = 0; t < add_threads; ++t) {
      const size_t begin = std::min(reads.size(), t * per);
      const size_t end = std::min(reads.size(), begin + per);
      adders.emplace_back([&, begin, end] {
        session.AddBatch(reads.data() + begin, end - begin);
      });
    }
    for (auto& t : adders) t.join();
  }
  return session.Finish(stats);
}

// Sessions under a tiny byte bound (constant backpressure, spins and
// parks) still produce bit-identical counts to the serial reference, from
// concurrent AddBatch callers. TSan covers the
// Admit / ring push / DrainOwnedRings protocol here.
TEST(MpscRingTest, SessionWithRingsMatchesSerialUnderBackpressure) {
  std::vector<Read> reads = SimulatedReads(12000, 8.0, 31);
  reads.push_back({"n_runs", "ACGTACGTNNNNNNNNNNACGTACGATCGATTACA", ""});
  reads.push_back({"poly_a", std::string(200, 'A'), ""});
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 4;
  config.num_threads = 4;
  const auto expected =
      SortedPartitions(CountCanonicalMersSerial(reads, config));
  KmerCountStats stats;
  // 1 byte rounds up to the minimum admissible bound: every chunk fights
  // the byte-budget CAS and the ring capacity at once.
  const auto actual = SortedPartitions(RunSession(
      reads, config, /*max_queued_bytes=*/1, /*add_threads=*/3, &stats));
  EXPECT_EQ(actual, expected);
  EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes);
  // Per-shard ledgers are consumer-side; they must still sum to the totals
  // exactly.
  uint64_t windows = 0;
  for (uint64_t w : stats.shard_windows) windows += w;
  EXPECT_EQ(windows, stats.total_windows);
}

// Sessions under a spill context share the rings' byte admission: without
// a budget, under a 1-byte budget and under one of several chunks, with
// concurrent AddBatch callers, the counts match the serial reference, the
// budget caps the bound (floored at one chunk), the bound holds, and no
// chunk reaches the spill directory. A session abandoned without Finish
// joins its counter threads. TSan covers the admission handoff between
// scanners and counters here.
TEST(MpscRingTest, SpillSessionsShareTheRingAdmission) {
  std::vector<Read> reads = SimulatedReads(8000, 6.0, 23);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 4;
  config.num_threads = 2;
  const auto expected =
      SortedPartitions(CountCanonicalMersSerial(reads, config));
  // The counter's smallest bound: its 32 KiB flush threshold plus one
  // maximal super-k-mer record (dbg/kmer_counter.cpp).
  constexpr uint64_t kOneChunk = (32 << 10) + kMaxSuperkmerRecordBytes;
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{128} << 10}) {
    auto spill = MakeSpillContext("", budget);
    config.spill = spill.get();
    const std::string label = "budget=" + std::to_string(budget);
    KmerCountStats stats;
    const auto actual = SortedPartitions(
        RunSession(reads, config, /*max_queued_bytes=*/0, /*add_threads=*/3,
                   &stats));
    EXPECT_EQ(actual, expected) << label;
    EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes) << label;
    const uint64_t cap = budget == 0 ? CounterSession::kDefaultMaxQueuedBytes
                                     : std::max(budget, kOneChunk);
    EXPECT_LE(stats.queue_bound_bytes, cap) << label;
    {
      CounterSession abandoned(config);
      abandoned.AddBatch(reads);
    }
    if (spill != nullptr) {
      EXPECT_TRUE(std::filesystem::is_empty(spill->manager.dir())) << label;
    }
  }
}

}  // namespace
}  // namespace ppa
