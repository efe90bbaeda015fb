// Tests for the mini MapReduce extension (pregel/mapreduce.h).
#include "pregel/mapreduce.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "util/hash.h"

namespace ppa {
namespace {

TEST(MapReduceTest, WordCountStyle) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back(i % 37);
  auto input = Scatter(data, 8);

  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  MapReduceConfig config;
  config.num_workers = 8;
  config.num_threads = 2;
  RunStats stats;
  auto result = RunMapReduce<uint64_t, uint64_t, uint32_t,
                             std::pair<uint64_t, uint32_t>>(
      input, map_fn, reduce_fn, config, &stats);

  std::map<uint64_t, uint32_t> merged;
  for (const auto& part : result) {
    for (const auto& [k, v] : part) merged[k] = v;
  }
  ASSERT_EQ(merged.size(), 37u);
  for (uint64_t k = 0; k < 37; ++k) {
    uint32_t expected = 1000 / 37 + (k < 1000 % 37 ? 1 : 0);
    EXPECT_EQ(merged[k], expected) << k;
  }
  // Stats: 1000 shuffled pairs over two recorded phases.
  EXPECT_EQ(stats.num_supersteps(), 2u);
  EXPECT_EQ(stats.total_messages(), 1000u);
}

TEST(MapReduceTest, OutputLandsOnKeyPartition) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 256; ++i) data.push_back(i);
  auto input = Scatter(data, 4);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x * 7, x);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(key); };
  MapReduceConfig config;
  config.num_workers = 4;
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  for (uint32_t p = 0; p < 4; ++p) {
    for (uint64_t key : result[p]) {
      EXPECT_EQ(Mix64(key) % 4, p);
    }
  }
}

TEST(MapReduceTest, GroupsAreSortedAndComplete) {
  // Keys interleaved across input partitions; every value must reach the
  // single group of its key.
  std::vector<std::pair<uint64_t, uint64_t>> data;
  for (uint64_t i = 0; i < 300; ++i) data.push_back({i % 3, i});
  auto input = Scatter(data, 5);
  auto map_fn = [](const std::pair<uint64_t, uint64_t>& kv, auto& emitter) {
    emitter.Emit(kv.first, kv.second);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t> values,
                      std::vector<std::pair<uint64_t, size_t>>& out) {
    out.emplace_back(key, values.size());
  };
  MapReduceConfig config;
  config.num_workers = 5;
  auto result =
      RunMapReduce<std::pair<uint64_t, uint64_t>, uint64_t, uint64_t,
                   std::pair<uint64_t, size_t>>(input, map_fn, reduce_fn,
                                                config);
  auto flat = Flatten(result);
  ASSERT_EQ(flat.size(), 3u);
  for (const auto& [key, count] : flat) EXPECT_EQ(count, 100u) << key;
}

TEST(MapReduceTest, PairKeysWork) {
  using Key = PairKey;
  std::vector<uint64_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto input = Scatter(data, 3);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(Key{x % 2, x % 3}, x);
  };
  auto reduce_fn = [](const Key& key, std::span<uint64_t> values,
                      std::vector<std::pair<Key, uint64_t>>& out) {
    uint64_t sum = 0;
    for (uint64_t v : values) sum += v;
    out.emplace_back(key, sum);
  };
  MapReduceConfig config;
  config.num_workers = 3;
  auto flat = Flatten(RunMapReduce<uint64_t, Key, uint64_t,
                                   std::pair<Key, uint64_t>>(
      input, map_fn, reduce_fn, config));
  uint64_t total = 0;
  for (const auto& [key, sum] : flat) total += sum;
  EXPECT_EQ(total, 36u);
  EXPECT_EQ(flat.size(), 6u);  // (0|1) x (0|1|2)
}

// PairKey stands in for std::pair<uint64_t, uint64_t> keys: the same order
// (reduce order) and the same hash (routing), so swapping it in moves no
// pair to another destination or group position.
TEST(MapReduceTest, PairKeyOrdersAndHashesLikeStdPair) {
  const uint64_t words[] = {0, 1, 2, 7, uint64_t{1} << 40, UINT64_MAX};
  for (uint64_t a1 : words) {
    for (uint64_t a2 : words) {
      const PairKey a{a1, a2};
      EXPECT_EQ(MrKeyHash<PairKey>{}(a), HashCombine(Mix64(a1), a2));
      for (uint64_t b1 : words) {
        for (uint64_t b2 : words) {
          const PairKey b{b1, b2};
          EXPECT_EQ(a < b, std::pair(a1, a2) < std::pair(b1, b2));
          EXPECT_EQ(a == b, std::pair(a1, a2) == std::pair(b1, b2));
        }
      }
    }
  }
}

TEST(MapReduceTest, EmptyInput) {
  Partitioned<uint64_t> input(4);
  auto map_fn = [](const uint64_t& x, auto& emitter) { emitter.Emit(x, x); };
  auto reduce_fn = [](const uint64_t&, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(1); };
  MapReduceConfig config;
  config.num_workers = 4;
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  EXPECT_TRUE(Flatten(result).empty());
}

// Word count under both strategies and several thread counts: outputs must
// be bit-identical partition by partition (the engine's determinism and
// ordering contract), not merely equal as multisets.
TEST(MapReduceTest, StrategiesAndThreadCountsAgreeExactly) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back((i * 2654435761u) % 911);
  auto input = Scatter(data, 8);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  auto run = [&](ShuffleStrategy strategy, unsigned threads) {
    MapReduceConfig config;
    config.num_workers = 8;
    config.num_threads = threads;
    config.shuffle_strategy = strategy;
    return RunMapReduce<uint64_t, uint64_t, uint32_t,
                        std::pair<uint64_t, uint32_t>>(input, map_fn,
                                                       reduce_fn, config);
  };

  const auto reference = run(ShuffleStrategy::kSort, 1);
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSort, ShuffleStrategy::kHash}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(run(strategy, threads), reference)
          << ShuffleStrategyName(strategy) << " threads=" << threads;
    }
  }
}

// Both strategies must deliver each group's values in (source, emit) order
// and invoke reduce in ascending key order.
TEST(MapReduceTest, GroupValuesArriveInSourceEmitOrder) {
  // Source s emits (key, s * 100 + j) for its j-th emission of each key.
  Partitioned<uint64_t> input(4);
  for (uint64_t s = 0; s < 4; ++s) {
    for (uint64_t j = 0; j < 3; ++j) input[s].push_back(s * 100 + j);
  }
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(uint64_t{7}, x);  // single group
    emitter.Emit(uint64_t{3}, x);  // second group, smaller key
  };
  std::vector<std::vector<uint64_t>> groups_seen;
  auto reduce_fn = [&groups_seen](const uint64_t& key,
                                  std::span<uint64_t> values,
                                  std::vector<uint64_t>& out) {
    groups_seen.emplace_back(values.begin(), values.end());
    out.push_back(key);
  };
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSort, ShuffleStrategy::kHash}) {
    groups_seen.clear();
    MapReduceConfig config;
    config.num_workers = 4;
    config.num_threads = 1;  // shared groups_seen
    config.shuffle_strategy = strategy;
    auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
        input, map_fn, reduce_fn, config);
    const std::vector<uint64_t> expected = {0,   1,   2,   100, 101, 102,
                                            200, 201, 202, 300, 301, 302};
    // Both keys hash to some destination; each group saw source-major,
    // emit-ordered values.
    ASSERT_EQ(groups_seen.size(), 2u) << ShuffleStrategyName(strategy);
    EXPECT_EQ(groups_seen[0], expected) << ShuffleStrategyName(strategy);
    EXPECT_EQ(groups_seen[1], expected) << ShuffleStrategyName(strategy);
    // Ascending key order within each destination.
    auto flat = Flatten(result);
    std::sort(flat.begin(), flat.end());
    EXPECT_EQ(flat, (std::vector<uint64_t>{3, 7}));
  }
}

// The map-side combiner pre-aggregates per source: results are unchanged,
// and the recorded shuffle volume drops to one pair per (source, key).
TEST(MapReduceTest, CombinerReducesShuffleVolume) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back(i % 37);
  auto input = Scatter(data, 8);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, uint32_t{1});
  };
  auto combine_fn = [](uint32_t& acc, uint32_t&& v) { acc += v; };
  auto reduce_fn = [](const uint64_t& key, std::span<uint32_t> values,
                      std::vector<std::pair<uint64_t, uint32_t>>& out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out.emplace_back(key, sum);
  };

  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kSort, ShuffleStrategy::kHash}) {
    MapReduceConfig config;
    config.num_workers = 8;
    config.num_threads = 2;
    config.shuffle_strategy = strategy;
    RunStats stats;
    auto result = RunMapReduce<uint64_t, uint64_t, uint32_t,
                               std::pair<uint64_t, uint32_t>>(
        input, map_fn, combine_fn, reduce_fn, config, &stats);

    std::map<uint64_t, uint32_t> merged;
    for (const auto& part : result) {
      for (const auto& [k, v] : part) merged[k] = v;
    }
    ASSERT_EQ(merged.size(), 37u);
    for (uint64_t k = 0; k < 37; ++k) {
      EXPECT_EQ(merged[k], 1000 / 37 + (k < 1000 % 37 ? 1 : 0)) << k;
    }
    // 1000 emissions collapse to at most 8 sources x 37 keys pairs.
    EXPECT_EQ(stats.pairs_emitted, 1000u);
    EXPECT_LE(stats.pairs_shuffled, 8u * 37u);
    EXPECT_GT(stats.pairs_shuffled, 0u);
    // The recorded message volume is the post-combine one.
    EXPECT_EQ(stats.supersteps[0].messages_sent, stats.pairs_shuffled);
  }
}

// Without a combiner the two volumes are equal (nothing combined away).
TEST(MapReduceTest, NoCombinerShufflesEveryEmission) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 300; ++i) data.push_back(i % 5);
  auto input = Scatter(data, 4);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, x);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(key); };
  MapReduceConfig config;
  config.num_workers = 4;
  RunStats stats;
  RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(input, map_fn,
                                                       reduce_fn, config,
                                                       &stats);
  EXPECT_EQ(stats.pairs_emitted, 300u);
  EXPECT_EQ(stats.pairs_shuffled, 300u);
}

// More pairs than one chunk holds, forcing sealed-chunk handoff, under
// composite (pair) keys and both strategies.
TEST(MapReduceTest, MultiChunkPairKeysAgreeAcrossStrategies) {
  using Key = PairKey;
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 20000; ++i) data.push_back(i);
  auto input = Scatter(data, 3);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(Key{x % 17, x % 13}, x);
  };
  auto reduce_fn = [](const Key& key, std::span<uint64_t> values,
                      std::vector<std::pair<Key, uint64_t>>& out) {
    uint64_t sum = 0;
    for (uint64_t v : values) sum += v;
    out.emplace_back(key, sum);
  };
  auto run = [&](ShuffleStrategy strategy) {
    MapReduceConfig config;
    config.num_workers = 3;
    config.num_threads = 2;
    config.shuffle_strategy = strategy;
    return RunMapReduce<uint64_t, Key, uint64_t, std::pair<Key, uint64_t>>(
        input, map_fn, reduce_fn, config);
  };
  const auto sorted = run(ShuffleStrategy::kSort);
  const auto hashed = run(ShuffleStrategy::kHash);
  EXPECT_EQ(sorted, hashed);
  EXPECT_EQ(Flatten(sorted).size(), 17u * 13u);
}

TEST(ScatterTest, RoundRobinPreservesAll) {
  std::vector<int> data(103);
  for (int i = 0; i < 103; ++i) data[i] = i;
  auto parts = Scatter(data, 7);
  EXPECT_EQ(parts.size(), 7u);
  auto flat = Flatten(parts);
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, data);
}

}  // namespace
}  // namespace ppa
