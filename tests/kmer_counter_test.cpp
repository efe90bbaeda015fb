// Tests for the sharded parallel k-mer counter: the central property is
// that the sharded counter (minimizer-bucketed super-k-mer pass 1) and the
// single-thread serial reference produce bit-identical (code, count) sets,
// per output partition, on simulated genomes across k-mer sizes, minimizer
// lengths, thread counts and shard counts.
#include "dbg/kmer_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dna/kmer.h"
#include "dna/superkmer.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/hash.h"
#include "util/varint.h"

namespace ppa {
namespace {

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
                                 double error_rate, uint64_t seed) {
  GenomeConfig genome_config;
  genome_config.length = genome_length;
  genome_config.seed = seed;
  PackedSequence reference = GenerateGenome(genome_config);
  ReadSimConfig read_config;
  read_config.coverage = coverage;
  read_config.error_rate = error_rate;
  read_config.seed = seed + 1;
  return SimulateReads(reference, read_config);
}

// The headline property: parallel sharded counts are bit-identical to the
// serial reference, per output partition, for every (k, threads) combo.
TEST(KmerCounterTest, ShardedMatchesSerialAcrossKAndThreads) {
  std::vector<Read> reads = SimulatedReads(20000, 12.0, 0.01, 99);
  for (int k : {15, 21, 31}) {
    KmerCountConfig config;
    config.mer_length = k;
    config.num_workers = 4;
    config.coverage_threshold = 1;
    auto expected = SortedPartitions(CountCanonicalMersSerial(reads, config));
    for (unsigned threads : {1u, 4u, 8u}) {
      config.num_threads = threads;
      config.num_shards = 0;  // auto
      KmerCountStats stats;
      auto actual = SortedPartitions(CountCanonicalMers(reads, config, &stats));
      EXPECT_EQ(actual, expected) << "k=" << k << " threads=" << threads;
      EXPECT_EQ(stats.threads, threads);
    }
  }
}

// The equivalence grid: the super-k-mer pass 1 produces the serial
// oracle's surviving-mer sets and per-worker partitions across
// k x minimizer length x threads, with shuffle-volume accounting that sums
// exactly and shows the super-k-mer compression.
TEST(KmerCounterTest, SuperkmerMatchesSerialAcrossKMinimizerAndThreads) {
  std::vector<Read> reads = SimulatedReads(20000, 12.0, 0.01, 42);
  // Exercise the edge paths inside the grid too.
  reads.push_back({"n_runs", "ACGTACGTNNNNNNNNNNACGTACGATCGATTACA", ""});
  reads.push_back({"short", "ACGTACG", ""});
  reads.push_back({"poly_a", std::string(200, 'A'), ""});
  for (int k : {15, 21, 31}) {
    KmerCountConfig config;
    config.mer_length = k;
    config.num_workers = 4;
    config.coverage_threshold = 2;
    KmerCountStats serial_stats;
    auto expected = SortedPartitions(
        CountCanonicalMersSerial(reads, config, &serial_stats));
    for (int m : {7, 11}) {
      for (unsigned threads : {1u, 4u, 8u}) {
        config.minimizer_len = m;
        config.num_threads = threads;
        KmerCountStats stats;
        auto actual =
            SortedPartitions(CountCanonicalMers(reads, config, &stats));
        EXPECT_EQ(actual, expected)
            << "k=" << k << " m=" << m << " threads=" << threads;
        EXPECT_EQ(stats.total_bases, serial_stats.total_bases);
        EXPECT_EQ(stats.total_windows, serial_stats.total_windows);
        EXPECT_EQ(stats.distinct_mers, serial_stats.distinct_mers);
        EXPECT_EQ(stats.surviving_mers, serial_stats.surviving_mers);
        // Accounting integrity: per-shard measurements sum to the totals.
        uint64_t windows = 0, bytes = 0, records = 0;
        for (uint64_t w : stats.shard_windows) windows += w;
        for (uint64_t b : stats.shard_bytes) bytes += b;
        for (uint64_t r : stats.shard_messages) records += r;
        EXPECT_EQ(windows, stats.total_windows);
        EXPECT_EQ(bytes, stats.shuffled_bytes);
        EXPECT_EQ(records, stats.superkmers);
        EXPECT_EQ(stats.shuffled_messages, stats.superkmers);
        EXPECT_EQ(stats.minimizer_len, std::min(m, k));
        // The point of the encoding: fewer shuffle bytes than one 8-byte
        // code per window would ship.
        EXPECT_LT(stats.shuffled_bytes, 8 * stats.total_windows)
            << "k=" << k << " m=" << m;
      }
    }
  }
}

TEST(KmerCounterTest, ShardedMatchesSerialAcrossShardCounts) {
  std::vector<Read> reads = SimulatedReads(15000, 10.0, 0.02, 7);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 3;
  config.num_threads = 4;
  auto expected = SortedPartitions(CountCanonicalMersSerial(reads, config));
  for (uint32_t shards : {1u, 2u, 16u, 128u}) {
    config.num_shards = shards;
    KmerCountStats stats;
    auto actual = SortedPartitions(CountCanonicalMers(reads, config, &stats));
    EXPECT_EQ(actual, expected) << "shards=" << shards;
    EXPECT_EQ(stats.shards, shards);
  }
}

// Shard routing must spread the windows evenly: the fullest shard carries
// at most 30% more than the mean, on the batch counter and on a session.
// Routing by the minimizer's ordering key (the smallest Mix64 among the
// window's m-mers) would put nearly every window into shard 0. Beyond ~64
// shards this genome has too few distinct minimizers to balance, so the
// grid stops at 8.
TEST(KmerCounterTest, ShardsCarryBalancedWindowLoads) {
  std::vector<Read> reads = SimulatedReads(20000, 12.0, 0.01, 99);
  auto expect_balanced = [](const KmerCountStats& stats,
                            const std::string& where) {
    ASSERT_EQ(stats.shard_windows.size(), stats.shards) << where;
    const uint64_t max_windows = *std::max_element(
        stats.shard_windows.begin(), stats.shard_windows.end());
    const double mean =
        static_cast<double>(stats.total_windows) / stats.shards;
    EXPECT_LE(static_cast<double>(max_windows), 1.3 * mean)
        << where << " max=" << max_windows << " mean=" << mean;
  };
  for (int k : {16, 22, 32}) {
    for (uint32_t shards : {2u, 8u}) {
      KmerCountConfig config;
      config.mer_length = k;
      config.num_workers = 4;
      config.num_threads = 2;
      config.num_shards = shards;
      const std::string where =
          "k=" + std::to_string(k) + " shards=" + std::to_string(shards);
      KmerCountStats batch_stats;
      CountCanonicalMers(reads, config, &batch_stats);
      expect_balanced(batch_stats, "batch " + where);
      CounterSession session(config);
      session.AddBatch(reads);
      KmerCountStats session_stats;
      session.Finish(&session_stats);
      expect_balanced(session_stats, "session " + where);
    }
  }
}

TEST(KmerCounterTest, CoverageThresholdFiltersBothPathsIdentically) {
  std::vector<Read> reads = SimulatedReads(10000, 15.0, 0.03, 11);
  for (uint32_t theta : {1u, 2u, 5u}) {
    KmerCountConfig config;
    config.mer_length = 17;
    config.num_workers = 2;
    config.num_threads = 4;
    config.coverage_threshold = theta;
    KmerCountStats serial_stats, sharded_stats;
    auto expected = SortedPartitions(
        CountCanonicalMersSerial(reads, config, &serial_stats));
    auto actual =
        SortedPartitions(CountCanonicalMers(reads, config, &sharded_stats));
    EXPECT_EQ(actual, expected) << "theta=" << theta;
    EXPECT_EQ(sharded_stats.distinct_mers, serial_stats.distinct_mers);
    EXPECT_EQ(sharded_stats.surviving_mers, serial_stats.surviving_mers);
    EXPECT_EQ(sharded_stats.total_windows, serial_stats.total_windows);
    if (theta == 1) {
      EXPECT_EQ(sharded_stats.surviving_mers, sharded_stats.distinct_mers);
    } else {
      EXPECT_LE(sharded_stats.surviving_mers, sharded_stats.distinct_mers);
    }
  }
}

// Hand-checkable case: 'N' splits a read, and fragments shorter than the
// mer length contribute nothing.
TEST(KmerCounterTest, NSplitsReads) {
  Read read;
  read.name = "r1";
  read.bases = "ACGTANGTCANGG";  // fragments: ACGTA, GTCA, GG
  KmerCountConfig config;
  config.mer_length = 3;
  config.num_workers = 1;
  config.num_threads = 2;
  KmerCountStats stats;
  MerCounts counts = CountCanonicalMers({read}, config, &stats);
  // ACGTA -> ACG, CGT, GTA; GTCA -> GTC, TCA; GG is too short.
  EXPECT_EQ(stats.total_windows, 5u);
  uint64_t total = 0;
  for (const auto& [code, count] : counts[0]) total += count;
  EXPECT_EQ(total, 5u);
  // All codes are canonical.
  for (const auto& [code, count] : counts[0]) {
    EXPECT_TRUE(Kmer(code, 3).IsCanonical());
  }
}

// A read and its reverse complement count the same canonical mers.
TEST(KmerCounterTest, StrandSymmetry) {
  Read fwd;
  fwd.bases = "ACGGTTACGGATCCGTAAGGCT";
  Read rev;
  for (auto it = fwd.bases.rbegin(); it != fwd.bases.rend(); ++it) {
    switch (*it) {
      case 'A': rev.bases += 'T'; break;
      case 'C': rev.bases += 'G'; break;
      case 'G': rev.bases += 'C'; break;
      default: rev.bases += 'A'; break;
    }
  }
  KmerCountConfig config;
  config.mer_length = 5;
  config.num_workers = 2;
  auto a = SortedPartitions(CountCanonicalMers({fwd}, config));
  auto b = SortedPartitions(CountCanonicalMers({rev}, config));
  EXPECT_EQ(a, b);
}

TEST(KmerCounterTest, EmptyAndShortInputs) {
  KmerCountConfig config;
  config.mer_length = 31;
  config.num_workers = 4;
  config.num_threads = 4;
  KmerCountStats stats;
  MerCounts empty = CountCanonicalMers({}, config, &stats);
  ASSERT_EQ(empty.size(), 4u);
  for (const auto& part : empty) EXPECT_TRUE(part.empty());
  EXPECT_EQ(stats.total_windows, 0u);

  Read short_read;
  short_read.bases = "ACGTACGT";  // 8 < 31
  MerCounts still_empty = CountCanonicalMers({short_read}, config, &stats);
  for (const auto& part : still_empty) EXPECT_TRUE(part.empty());
  EXPECT_EQ(stats.total_windows, 0u);
  EXPECT_EQ(stats.total_bases, 8u);
}

// Routing invariant phase (ii) depends on: partition d holds exactly the
// codes with Mix64(code) % W == d.
TEST(KmerCounterTest, PartitionRoutingInvariant) {
  std::vector<Read> reads = SimulatedReads(8000, 8.0, 0.01, 3);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 5;
  config.num_threads = 4;
  MerCounts counts = CountCanonicalMers(reads, config);
  ASSERT_EQ(counts.size(), 5u);
  for (uint32_t d = 0; d < counts.size(); ++d) {
    for (const auto& [code, count] : counts[d]) {
      EXPECT_EQ(Mix64(code) % 5, d);
      EXPECT_GE(count, 1u);
    }
  }
}

// Forces the open-addressing tables through several growth/rehash cycles:
// high error rate + low coverage maximizes distinct mers per shard.
TEST(KmerCounterTest, TableGrowthPreservesCounts) {
  std::vector<Read> reads = SimulatedReads(60000, 4.0, 0.08, 17);
  KmerCountConfig config;
  config.mer_length = 31;
  config.num_workers = 2;
  config.num_threads = 4;
  config.num_shards = 2;  // few shards -> large tables -> growth
  KmerCountStats stats;
  auto expected = SortedPartitions(CountCanonicalMersSerial(reads, config));
  auto actual = SortedPartitions(CountCanonicalMers(reads, config, &stats));
  EXPECT_EQ(actual, expected);
  EXPECT_GT(stats.distinct_mers, 60000u);  // enough to force rehashing
}

// Run-stats exactness: messages are super-k-mer records, bytes are the
// measured packed chunks, reduce ops stay one table probe per window, and
// the per-shard loads folded into worker slots sum to the totals.
TEST(KmerCounterTest, SuperkmerRunStatsTotalsAreExact) {
  std::vector<Read> reads = SimulatedReads(5000, 10.0, 0.01, 23);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 4;
  KmerCountStats stats;
  CountCanonicalMers(reads, config, &stats);
  EXPECT_EQ(stats.shuffled_messages, stats.superkmers);
  EXPECT_GT(stats.superkmers, 0u);
  EXPECT_LT(stats.superkmers, stats.total_windows);
  ASSERT_EQ(stats.shard_windows.size(), stats.shards);
  uint64_t shard_sum = 0;
  for (uint64_t w : stats.shard_windows) shard_sum += w;
  EXPECT_EQ(shard_sum, stats.total_windows);

  RunStats run = MerCountRunStats(stats, 4, "phase1-superkmer");
  ASSERT_EQ(run.num_supersteps(), 2u);
  EXPECT_EQ(run.total_messages(), stats.superkmers);
  EXPECT_EQ(run.supersteps[0].message_bytes, stats.shuffled_bytes);
  EXPECT_EQ(run.supersteps[1].compute_ops, stats.total_windows);
  const SuperstepStats& map_ss = run.supersteps[0];
  uint64_t worker_sum = 0, bytes_sum = 0, ops_sum = 0;
  for (uint64_t m : map_ss.worker_messages) worker_sum += m;
  for (uint64_t b : map_ss.worker_bytes) bytes_sum += b;
  for (uint64_t o : map_ss.worker_ops) ops_sum += o;
  EXPECT_EQ(worker_sum, map_ss.messages_sent);
  EXPECT_EQ(bytes_sum, map_ss.message_bytes);
  EXPECT_EQ(ops_sum, map_ss.compute_ops);
}

// ---------------------------------------------------------------------------
// Edge cases: 'N' runs, too-short reads, empty input — the serial and
// sharded paths must agree bit-identically on all of them.
// ---------------------------------------------------------------------------

void ExpectSerialShardedAgree(const std::vector<Read>& reads, int mer_length,
                              const char* label) {
  KmerCountConfig config;
  config.mer_length = mer_length;
  config.num_workers = 3;
  config.num_threads = 4;
  KmerCountStats serial_stats;
  auto expected =
      SortedPartitions(CountCanonicalMersSerial(reads, config, &serial_stats));
  KmerCountStats sharded_stats;
  auto actual =
      SortedPartitions(CountCanonicalMers(reads, config, &sharded_stats));
  EXPECT_EQ(actual, expected) << label;
  EXPECT_EQ(sharded_stats.total_bases, serial_stats.total_bases) << label;
  EXPECT_EQ(sharded_stats.total_windows, serial_stats.total_windows) << label;
  EXPECT_EQ(sharded_stats.distinct_mers, serial_stats.distinct_mers) << label;
}

TEST(KmerCounterTest, NRunsSplitIdenticallyOnBothPaths) {
  std::vector<Read> reads;
  reads.push_back({"all_n", std::string(50, 'N'), ""});
  reads.push_back({"leading_n", "NNNNNACGTACGTACGT", ""});
  reads.push_back({"trailing_n", "ACGTACGTACGTNNNNN", ""});
  reads.push_back({"n_run_inside", "ACGTACGTNNNNNNNNNNACGTACGAT", ""});
  reads.push_back({"alternating", "ANANANANANANANANAN", ""});
  reads.push_back({"lowercase_junk", "ACGTxyzACGTACGT?!ACGT", ""});
  for (int k : {3, 7, 15}) {
    ExpectSerialShardedAgree(reads, k, "N runs");
  }
  // The all-'N' read contributes bases but no windows.
  KmerCountConfig config;
  config.mer_length = 5;
  config.num_workers = 1;
  KmerCountStats stats;
  CountCanonicalMers({reads[0]}, config, &stats);
  EXPECT_EQ(stats.total_bases, 50u);
  EXPECT_EQ(stats.total_windows, 0u);
}

TEST(KmerCounterTest, ReadsShorterThanMerLengthOnBothPaths) {
  std::vector<Read> reads;
  reads.push_back({"empty", "", ""});
  reads.push_back({"one", "A", ""});
  reads.push_back({"just_under", std::string(31, 'C'), ""});  // 31 < 32
  reads.push_back({"exact", "ACGTACGTACGTACGTACGTACGTACGTACGT", ""});  // 32
  ExpectSerialShardedAgree(reads, 32, "short reads");
  KmerCountConfig config;
  config.mer_length = 32;
  config.num_workers = 2;
  config.num_threads = 2;
  KmerCountStats stats;
  MerCounts counts = CountCanonicalMers(reads, config, &stats);
  // Only the length-32 read emits a window.
  EXPECT_EQ(stats.total_windows, 1u);
  uint64_t survivors = 0;
  for (const auto& part : counts) survivors += part.size();
  EXPECT_EQ(survivors, 1u);
}

TEST(KmerCounterTest, EmptyInputOnBothPaths) {
  ExpectSerialShardedAgree({}, 15, "empty input");
  KmerCountConfig config;
  config.mer_length = 15;
  config.num_workers = 4;
  KmerCountStats serial_stats;
  MerCounts serial = CountCanonicalMersSerial({}, config, &serial_stats);
  ASSERT_EQ(serial.size(), 4u);
  for (const auto& part : serial) EXPECT_TRUE(part.empty());
  EXPECT_EQ(serial_stats.total_bases, 0u);
  EXPECT_EQ(serial_stats.distinct_mers, 0u);
}

// ---------------------------------------------------------------------------
// CounterSession: the streaming batch-ingest path must be bit-identical to
// the serial counter on the concatenated input, and its buffered-byte
// high-water mark must respect the configured bound.
// ---------------------------------------------------------------------------

TEST(CounterSessionTest, MatchesSerialCounterAcrossBatchSizes) {
  std::vector<Read> reads = SimulatedReads(20000, 12.0, 0.01, 99);
  KmerCountConfig config;
  config.mer_length = 21;
  config.num_workers = 4;
  config.num_threads = 4;
  KmerCountStats serial_stats;
  auto expected =
      SortedPartitions(CountCanonicalMersSerial(reads, config, &serial_stats));
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}, reads.size()}) {
    CounterSession session(config);
    for (size_t begin = 0; begin < reads.size(); begin += batch_size) {
      const size_t n = std::min(batch_size, reads.size() - begin);
      session.AddBatch(reads.data() + begin, n);
    }
    KmerCountStats stats;
    auto actual = SortedPartitions(session.Finish(&stats));
    EXPECT_EQ(actual, expected) << "batch_size=" << batch_size;
    EXPECT_EQ(stats.total_bases, serial_stats.total_bases);
    EXPECT_EQ(stats.total_windows, serial_stats.total_windows);
    EXPECT_EQ(stats.distinct_mers, serial_stats.distinct_mers);
    EXPECT_EQ(stats.surviving_mers, serial_stats.surviving_mers);
    EXPECT_EQ(stats.queue_bound_bytes, CounterSession::kDefaultMaxQueuedBytes);
    EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes)
        << "batch_size=" << batch_size;
    // Enqueued accounting covers every window and every shipped byte.
    uint64_t shard_sum = 0, bytes_sum = 0;
    for (uint64_t w : stats.shard_windows) shard_sum += w;
    for (uint64_t b : stats.shard_bytes) bytes_sum += b;
    EXPECT_EQ(shard_sum, stats.total_windows);
    EXPECT_EQ(bytes_sum, stats.shuffled_bytes);
  }
}

TEST(CounterSessionTest, TightQueueBoundIsRespectedUnderBackpressure) {
  std::vector<Read> reads = SimulatedReads(15000, 10.0, 0.02, 7);
  KmerCountConfig config;
  config.mer_length = 17;
  config.num_workers = 2;
  config.num_threads = 2;
  config.coverage_threshold = 2;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  // A bound below the flush granularity is clamped up to it; the session
  // must still finish (no deadlock) and stay under the clamped bound.
  CounterSession session(config, /*max_queued_bytes=*/1);
  session.AddBatch(reads);
  KmerCountStats stats;
  auto actual = SortedPartitions(session.Finish(&stats));
  EXPECT_EQ(actual, expected);
  EXPECT_GT(stats.queue_bound_bytes, 0u);
  EXPECT_LT(stats.queue_bound_bytes, CounterSession::kDefaultMaxQueuedBytes);
  EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes);
  EXPECT_GT(stats.peak_queued_bytes, 0u);
}

TEST(CounterSessionTest, ConcurrentAddBatchCallersAgreeWithSerial) {
  std::vector<Read> reads = SimulatedReads(30000, 8.0, 0.02, 31);
  KmerCountConfig config;
  config.mer_length = 31;
  config.num_workers = 5;
  config.num_threads = 4;
  auto expected = SortedPartitions(CountCanonicalMersSerial(reads, config));
  CounterSession session(config, /*max_queued_bytes=*/65536);
  const unsigned kCallers = 4;
  std::vector<std::thread> callers;
  for (unsigned c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Interleaved slices, 100 reads at a time.
      for (size_t begin = c * 100; begin < reads.size();
           begin += kCallers * 100) {
        const size_t n = std::min<size_t>(100, reads.size() - begin);
        session.AddBatch(reads.data() + begin, n);
      }
    });
  }
  for (auto& t : callers) t.join();
  KmerCountStats stats;
  auto actual = SortedPartitions(session.Finish(&stats));
  EXPECT_EQ(actual, expected);
  EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes);
}

TEST(CounterSessionTest, EdgeCaseReadsMatchBatchCounter) {
  std::vector<Read> reads;
  reads.push_back({"n_run", "ACGTANGTCANGGNNNNAC", ""});
  reads.push_back({"short", "AC", ""});
  reads.push_back({"empty", "", ""});
  KmerCountConfig config;
  config.mer_length = 3;
  config.num_workers = 2;
  config.num_threads = 2;
  auto expected = SortedPartitions(CountCanonicalMers(reads, config));
  CounterSession session(config);
  for (const Read& r : reads) session.AddBatch(&r, 1);
  KmerCountStats stats;
  EXPECT_EQ(SortedPartitions(session.Finish(&stats)), expected);

  // An empty session yields empty partitions.
  CounterSession empty_session(config);
  KmerCountStats empty_stats;
  MerCounts empty = empty_session.Finish(&empty_stats);
  ASSERT_EQ(empty.size(), 2u);
  for (const auto& part : empty) EXPECT_TRUE(part.empty());
  EXPECT_EQ(empty_stats.total_windows, 0u);
  EXPECT_EQ(empty_stats.peak_queued_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The table growth rule: a table of C slots (a power of two, 12 bytes each)
// holds floor(0.85 C) distinct mers and doubles on the next insert.
// ---------------------------------------------------------------------------

TEST(ShardCounterBankTest, TableDoublesOnlyWhenAnInsertWouldPass85PercentLoad) {
  constexpr int L = 31;
  // Distinct canonical codes in a fixed order, one one-window record each.
  std::vector<uint64_t> codes;
  std::set<uint64_t> seen;
  for (uint64_t x = 1; codes.size() < 7000; ++x) {
    const uint64_t code =
        Kmer(Mix64(x) & ((1ULL << (2 * L)) - 1), L).Canonical().code();
    if (seen.insert(code).second) codes.push_back(code);
  }
  ShardCounterBank bank(L, 1);
  std::map<uint64_t, uint32_t> expected;
  // Counts codes[begin, end) as one chunk of one-window records.
  auto add = [&](size_t begin, size_t end) {
    std::vector<uint8_t> records;
    for (size_t i = begin; i < end; ++i) {
      AppendSuperkmer(Kmer(codes[i], L).ToString(), &records);
      ++expected[codes[i]];
    }
    std::string error;
    ASSERT_TRUE(
        bank.AddChunk(0, records.data(), records.size(), end - begin, &error))
        << error;
  };
  EXPECT_EQ(bank.table_bytes(0), 2048u * 12);
  size_t distinct = 0;
  for (uint64_t slots : {2048u, 4096u, 8192u}) {
    const size_t full = slots * 85 / 100;  // floor(0.85 C)
    add(distinct, full);
    distinct = full;
    EXPECT_EQ(bank.distinct(0), distinct);
    EXPECT_EQ(bank.table_bytes(0), slots * 12) << full << " distinct mers";
    // Repeats only increment, at any load.
    add(0, distinct);
    EXPECT_EQ(bank.table_bytes(0), slots * 12) << "after repeats";
    add(distinct, distinct + 1);
    ++distinct;
    EXPECT_EQ(bank.table_bytes(0), 2 * slots * 12)
        << distinct << " distinct mers";
  }
  // Growth moved every count along: the table finalizes to the map.
  std::vector<Pair> actual;
  for (const auto& part : bank.Finalize(0, 1, 3)) {
    actual.insert(actual.end(), part.begin(), part.end());
  }
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, std::vector<Pair>(expected.begin(), expected.end()));
}

// ---------------------------------------------------------------------------
// ShardCounterBank decodes chunk payloads that crossed a socket, so every
// malformed payload must come back as a diagnostic, never an abort.
// ---------------------------------------------------------------------------

TEST(ShardCounterBankTest, RejectsMalformedChunkPayloads) {
  constexpr int L = 5;
  const std::vector<std::string> runs = {"ACGTACGTAC", "GGATCCA",
                                         std::string(22, 'T')};
  uint64_t windows = 0;
  for (const std::string& run : runs) windows += run.size() - L + 1;
  // The chunk payload by hand: varint(windows) varint(records) records.
  auto payload_declaring = [&](uint64_t declared_windows) {
    std::vector<uint8_t> payload;
    PutVarint64(&payload, declared_windows);
    PutVarint64(&payload, runs.size());
    for (const std::string& run : runs) AppendSuperkmer(run, &payload);
    return payload;
  };
  const std::vector<uint8_t> valid = payload_declaring(windows);

  ShardCounterBank bank(L, 2);
  std::string error;
  ASSERT_TRUE(bank.AddChunkPayload(1, valid.data(), valid.size(), &error))
      << error;
  EXPECT_EQ(bank.chunks(1), 1u);
  EXPECT_EQ(bank.windows(1), windows);

  auto expect_rejected = [&](const std::vector<uint8_t>& payload, size_t size,
                             const std::string& label) {
    ShardCounterBank fresh(L, 2);
    std::string diagnostic;
    EXPECT_FALSE(fresh.AddChunkPayload(0, payload.data(), size, &diagnostic))
        << label;
    EXPECT_FALSE(diagnostic.empty()) << label;
  };
  for (size_t size = 0; size < valid.size(); ++size) {
    expect_rejected(valid, size, "truncated to " + std::to_string(size));
  }
  for (uint64_t declared : {windows - 1, windows + 1}) {
    const std::vector<uint8_t> payload = payload_declaring(declared);
    expect_rejected(payload, payload.size(),
                    "declares " + std::to_string(declared) + " windows");
  }
  // One record whose base_length (13 bases = 4 packed bytes) runs past the
  // 3 bytes that follow it.
  std::vector<uint8_t> overlong;
  PutVarint64(&overlong, 13 - L + 1);
  PutVarint64(&overlong, 1);
  PutVarint64(&overlong, 13);
  overlong.insert(overlong.end(), 3, 0);
  expect_rejected(overlong, overlong.size(), "base_length past the buffer");
}

}  // namespace
}  // namespace ppa
