// Tests for the mini MapReduce extension (pregel/mapreduce.h).
#include "pregel/mapreduce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "spill/spill.h"
#include "util/hash.h"

namespace ppa {
namespace {

/// Serial reference MapReduce, the oracle for RunMapReduce: map every
/// record in source order, route each pair by MrKeyHash, stable-sort each
/// destination by key, reduce each run of equal keys. It shares no code
/// with the engine's emitter, chunk lanes, spill readback or HashGroupBy.
template <typename K, typename V, typename Out, typename In, typename MapFn,
          typename ReduceFn>
Partitioned<Out> ReferenceMapReduce(const Partitioned<In>& input,
                                    MapFn map_fn, ReduceFn reduce_fn,
                                    uint32_t num_workers) {
  struct Collector {
    std::vector<std::pair<K, V>> pairs;
    void Emit(K key, V value) { pairs.emplace_back(key, value); }
  } collector;
  for (const std::vector<In>& source : input) {
    for (const In& record : source) map_fn(record, collector);
  }
  std::vector<std::vector<std::pair<K, V>>> routed(num_workers);
  for (const auto& pair : collector.pairs) {
    routed[MrKeyHash<K>{}(pair.first) % num_workers].push_back(pair);
  }
  Partitioned<Out> output(num_workers);
  for (uint32_t d = 0; d < num_workers; ++d) {
    std::vector<std::pair<K, V>>& pairs = routed[d];
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t i = 0; i < pairs.size();) {
      std::vector<V> group;
      size_t j = i;
      for (; j < pairs.size() && pairs[j].first == pairs[i].first; ++j) {
        group.push_back(pairs[j].second);
      }
      reduce_fn(pairs[i].first, std::span<V>(group), output[d]);
      i = j;
    }
  }
  return output;
}

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

// RunMapReduce equals the serial reference partition for partition —
// every output in the same partition and in the same position — under
// 1, 2 and 8 threads, with and without a memory budget, for flat and
// PairKey keys. Each (source, destination) lane holds about three chunks
// (well over kChunkPairs pairs), and the reduce is order-sensitive, so a
// misordered chunk, value or group changes the output.
template <typename K>
void ExpectMatchesReference(K (*make_key)(uint64_t)) {
  constexpr uint32_t kWorkers = 4;
  std::vector<uint64_t> data(24000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i;
  const Partitioned<uint64_t> input = Scatter(data, kWorkers);
  auto map_fn = [make_key](const uint64_t& x, auto& emitter) {
    emitter.Emit(make_key(x % 1031), x);          // many small groups
    emitter.Emit(make_key((x * 7) % 97), x * 3);  // fewer, long groups
  };
  auto reduce_fn = [](const K& key, std::span<uint64_t> values,
                      std::vector<std::pair<K, uint64_t>>& out) {
    uint64_t acc = values.size();
    for (uint64_t v : values) acc = acc * 1000003 + v;
    out.emplace_back(key, acc);
  };
  const auto expected =
      ReferenceMapReduce<K, uint64_t, std::pair<K, uint64_t>>(
          input, map_fn, reduce_fn, kWorkers);
  // 48,000 pairs over 16 lanes: several sealed chunks per lane.
  ASSERT_GT(data.size() * 2 / (kWorkers * kWorkers),
            2 * mr_internal::kChunkPairs);

  // No budget (the in-memory path), a 1-byte budget (nothing pinned, every
  // chunk through disk) and a budget of several chunks (the chunks that
  // fit stay in memory).
  constexpr uint64_t kPairBytes = sizeof(K) + sizeof(uint64_t);
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{64} << 10}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      std::unique_ptr<SpillContext> spill = MakeSpillContext("", budget);
      MapReduceConfig config;
      config.num_workers = kWorkers;
      config.num_threads = threads;
      config.job_name = "reference-test";
      config.spill = spill.get();
      RunStats stats;
      const auto actual = RunMapReduce<uint64_t, K, uint64_t,
                                       std::pair<K, uint64_t>>(
          input, map_fn, reduce_fn, config, &stats);
      const std::string label = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(actual, expected) << label;
      EXPECT_EQ(stats.pairs_shuffled, 2 * data.size());
      EXPECT_EQ(stats.spill.readback_bytes, stats.spill.spilled_bytes)
          << label;
      if (budget == 0) {
        EXPECT_EQ(stats.spill.spilled_chunks, 0u) << label;
      } else if (budget == 1) {
        EXPECT_GE(stats.spill.spilled_bytes, stats.pairs_shuffled * kPairBytes)
            << label;
      } else {
        EXPECT_GT(stats.spill.spilled_chunks, 0u) << label;
        EXPECT_LE(spill->budget.peak_resident_bytes(), budget) << label;
      }
    }
  }
}

TEST(MapReduceTest, MatchesSerialReferenceWithFlatKeys) {
  ExpectMatchesReference<uint64_t>([](uint64_t x) { return x; });
}

TEST(MapReduceTest, MatchesSerialReferenceWithPairKeys) {
  ExpectMatchesReference<PairKey>(
      [](uint64_t x) { return PairKey{x % 17, x % 13}; });
}

// Each group's values arrive in (source, emit) order, and reduce runs in
// ascending key order.
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
  MapReduceConfig config;
  config.num_workers = 4;
  config.num_threads = 1;  // shared groups_seen
  auto result = RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      input, map_fn, reduce_fn, config);
  const std::vector<uint64_t> expected = {0,   1,   2,   100, 101, 102,
                                          200, 201, 202, 300, 301, 302};
  // Both keys hash to some destination; each group saw source-major,
  // emit-ordered values.
  ASSERT_EQ(groups_seen.size(), 2u);
  EXPECT_EQ(groups_seen[0], expected);
  EXPECT_EQ(groups_seen[1], expected);
  // Ascending key order within each destination.
  auto flat = Flatten(result);
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, (std::vector<uint64_t>{3, 7}));
}

// Every emission crosses the shuffle once: pairs_shuffled counts them, and
// the map superstep records the same number of messages.
TEST(MapReduceTest, PairsShuffledCountsEveryEmission) {
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 300; ++i) data.push_back(i % 5);
  auto input = Scatter(data, 4);
  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x, x);
    if (x == 0) emitter.Emit(x, x + 1);  // 60 records emit twice
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t>,
                      std::vector<uint64_t>& out) { out.push_back(key); };
  MapReduceConfig config;
  config.num_workers = 4;
  RunStats stats;
  RunMapReduce<uint64_t, uint64_t, uint64_t, uint64_t>(input, map_fn,
                                                       reduce_fn, config,
                                                       &stats);
  EXPECT_EQ(stats.pairs_shuffled, 360u);
  ASSERT_EQ(stats.num_supersteps(), 2u);
  EXPECT_EQ(stats.supersteps[0].messages_sent, stats.pairs_shuffled);
  EXPECT_EQ(stats.supersteps[0].message_bytes,
            360u * sizeof(std::pair<uint64_t, uint64_t>));
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
