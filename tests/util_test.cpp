// Tests for util/: varint, hashing, the open-addressing table, edit
// distance, text store, thread pool, RNG determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pregel/mapreduce.h"
#include "util/edit_distance.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/text_store.h"
#include "util/thread_pool.h"
#include "util/varint.h"

namespace ppa {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0,       1,        127,        128,
                                  16383,   16384,    (1ULL << 32) - 1,
                                  1ULL << 32, UINT64_MAX};
  std::vector<uint8_t> buf;
  for (uint64_t v : values) {
    EXPECT_EQ(PutVarint64(&buf, v), VarintLength(v));
  }
  size_t pos = 0;
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint64_t v = 0; v < 128; ++v) EXPECT_EQ(VarintLength(v), 1u);
  EXPECT_EQ(VarintLength(128), 2u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &v));
}

// Every continuation-byte boundary: 2^(7k) needs one more byte than
// 2^(7k) - 1, for every k up to the 10-byte 64-bit ceiling. The super-k-mer
// record header (dna/superkmer.h) leans on these exact lengths.
TEST(VarintTest, ContinuationByteBoundaries) {
  for (int k = 1; k <= 9; ++k) {
    const uint64_t boundary = 1ULL << (7 * k);
    EXPECT_EQ(VarintLength(boundary - 1), static_cast<size_t>(k))
        << "k=" << k;
    EXPECT_EQ(VarintLength(boundary), static_cast<size_t>(k) + 1) << "k=" << k;
    for (uint64_t v : {boundary - 1, boundary, boundary + 1}) {
      std::vector<uint8_t> buf;
      EXPECT_EQ(PutVarint64(&buf, v), VarintLength(v));
      size_t pos = 0;
      uint64_t decoded = 0;
      ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
      EXPECT_EQ(decoded, v);
      EXPECT_EQ(pos, buf.size());
      // Each intermediate byte must carry the continuation bit; the last
      // must not.
      for (size_t i = 0; i + 1 < buf.size(); ++i) EXPECT_NE(buf[i] & 0x80, 0);
      EXPECT_EQ(buf.back() & 0x80, 0);
    }
  }
}

TEST(VarintTest, MaxValueUsesTenBytesAndRoundTrips) {
  std::vector<uint8_t> buf;
  EXPECT_EQ(VarintLength(UINT64_MAX), 10u);
  EXPECT_EQ(PutVarint64(&buf, UINT64_MAX), 10u);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.back(), 0x01);  // bit 63 alone in the final byte
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(pos, 10u);
}

TEST(VarintTest, OverlongEncodingsAreRejected) {
  // Eleven continuation bytes: more than any 64-bit value can need.
  std::vector<uint8_t> overlong(11, 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(overlong.data(), overlong.size(), &pos, &v));
  EXPECT_EQ(pos, 0u);  // a failed decode must not advance the cursor

  // Ten continuation bytes then a terminator: also past the 64-bit ceiling.
  std::vector<uint8_t> eleven_bytes(10, 0x80);
  eleven_bytes.push_back(0x01);
  pos = 0;
  EXPECT_FALSE(
      GetVarint64(eleven_bytes.data(), eleven_bytes.size(), &pos, &v));
}

// The 10th byte of a maximal varint may carry bit 63 only. Any payload bit
// above it encodes a value >= 2^64; the old decoder shifted those bits out
// and returned a silently wrapped value — as a record length, that misframes
// every spill file and wire frame after it.
TEST(VarintTest, TenthBytePayloadBitsBeyondBit63AreRejected) {
  // Every set of excess payload bits in the 10th byte must fail.
  for (uint8_t tenth : {0x02, 0x04, 0x40, 0x7E, 0x7F, 0x03}) {
    std::vector<uint8_t> buf(9, 0xFF);
    buf.push_back(tenth);
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &v))
        << "tenth byte 0x" << std::hex << int(tenth);
    EXPECT_EQ(pos, 0u);
  }
  // The two valid 10th bytes still decode: bit 63 set, or (non-canonical
  // but in-range) a bare terminator.
  std::vector<uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(GetVarint64(max.data(), max.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX);

  std::vector<uint8_t> low63(9, 0xFF);
  low63.push_back(0x00);
  pos = 0;
  ASSERT_TRUE(GetVarint64(low63.data(), low63.size(), &pos, &v));
  EXPECT_EQ(v, UINT64_MAX >> 1);
}

TEST(VarintTest, DecodeStopsAtRecordBoundaries) {
  // Back-to-back records: the cursor must land exactly on each boundary,
  // the framing property text_store and the super-k-mer codec rely on.
  std::vector<uint8_t> buf;
  const std::vector<uint64_t> values = {0, 300, 127, UINT64_MAX, 1};
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t expected : values) {
    const size_t before = pos;
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &v));
    EXPECT_EQ(v, expected);
    EXPECT_EQ(pos - before, VarintLength(expected));
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, ZigZag) {
  for (int64_t v : {0L, -1L, 1L, -64L, 63L, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(HashTest, Mix64IsBijectiveOnSamples) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, PartitionerBalancesSimilarKeys) {
  // k-mer ids share high zero bits; the partitioner must still balance.
  std::vector<int> counts(16, 0);
  for (uint64_t id = 0; id < 16000; ++id) {
    ++counts[PartitionOf(id, 16)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

// ---------------------------------------------------------------------------
// FlatTable, the table behind the count shards, the id indexes and the
// group-by index, checked against std::map.
// ---------------------------------------------------------------------------

// 0 (poly-A's canonical code) and ~0 first, then mixed words.
std::vector<uint64_t> WordKeys(size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back(i == 0 ? 0 : i == 1 ? ~0ULL : Mix64(i));
  }
  return keys;
}

// {0, 0} and {~0, ~0} first, then pairs that share first or second words.
std::vector<PairKey> PairKeys(size_t n) {
  std::vector<PairKey> keys;
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back(i == 0   ? PairKey{0, 0}
                   : i == 1 ? PairKey{~0ULL, ~0ULL}
                            : PairKey{i >> 2, i & 3});
  }
  return keys;
}

// Inserts the first `inserted` keys with value position + 1, then every
// other one again with a new value, mirroring each insert on std::map, and
// checks lookups, growth, copies, ForEach, Reserve and operator[] counts.
// The keys after the first `inserted` are lookups that must miss.
template <typename K, typename Hash>
void CheckFlatTableAgainstMap(const std::vector<K>& keys, size_t inserted) {
  std::vector<std::pair<K, uint32_t>> inserts;
  for (size_t i = 0; i < inserted; ++i) {
    inserts.emplace_back(keys[i], static_cast<uint32_t>(i + 1));
  }
  for (size_t i = 0; i < inserted; i += 2) {
    inserts.emplace_back(keys[i], static_cast<uint32_t>(inserted + i + 1));
  }

  FlatTable<K, Hash> table;
  EXPECT_EQ(table.capacity(), 0u);  // nothing allocated yet
  EXPECT_EQ(table.Find(keys[0]), 0u);
  std::map<K, uint32_t> expected;
  for (const auto& [key, value] : inserts) {
    const size_t capacity = table.capacity();
    const bool fresh = !expected.contains(key);
    // The first insert wins, as in try_emplace.
    ASSERT_EQ(table.Insert(key, value),
              expected.try_emplace(key, value).first->second);
    // A new key grows the table only when it is the floor(0.85 C) + 1-th;
    // a repeat never does.
    size_t grown = capacity;
    if (fresh && capacity == 0) {
      grown = 16;
    } else if (fresh && expected.size() == capacity * 85 / 100 + 1) {
      grown = 2 * capacity;
    }
    ASSERT_EQ(table.capacity(), grown) << expected.size() << " keys";
  }
  EXPECT_EQ(table.size(), expected.size());
  for (const auto& [key, value] : expected) EXPECT_EQ(table.Find(key), value);
  for (size_t i = inserted; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i]), 0u) << "absent key " << i;
  }

  // A copy (what CopyIndex makes) finds the same keys.
  const FlatTable<K, Hash> copy = table;
  for (const auto& [key, value] : expected) EXPECT_EQ(copy.Find(key), value);

  // ForEach visits each key once, with its value.
  std::map<K, uint32_t> visited;
  copy.ForEach([&visited](const K& key, uint32_t value) {
    EXPECT_TRUE(visited.emplace(key, value).second);
  });
  EXPECT_EQ(visited, expected);

  // Reserve(n) then n inserts never grows.
  FlatTable<K, Hash> reserved;
  reserved.Reserve(expected.size());
  const size_t capacity = reserved.capacity();
  for (const auto& [key, value] : expected) {
    reserved.Insert(key, value);
    ASSERT_EQ(reserved.capacity(), capacity);
  }

  // operator[] starts a new key at 0, as the k-mer counter's increments
  // and std::map's operator[] both assume.
  FlatTable<K, Hash> counts;
  std::map<K, uint32_t> expected_counts;
  for (size_t i = 0; i < inserted; ++i) {
    for (const K& key : {keys[i], keys[i / 2]}) {
      ++counts[key];
      ++expected_counts[key];
    }
  }
  std::map<K, uint32_t> counted;
  counts.ForEach([&counted](const K& key, uint32_t count) {
    counted.emplace(key, count);
  });
  EXPECT_EQ(counted, expected_counts);
}

// 1 and 13 keys fit the 16-slot floor (the largest home shift), 14 is the
// first to double it, and the larger grids run through many doublings.
TEST(FlatTableTest, MatchesStdMapOverWordKeys) {
  for (size_t n : {1u, 13u, 14u, 1000u, 20000u}) {
    SCOPED_TRACE(n);
    CheckFlatTableAgainstMap<uint64_t, IdHash>(WordKeys(n + 100), n);
  }
}

TEST(FlatTableTest, MatchesStdMapOverPairKeys) {
  for (size_t n : {1u, 13u, 14u, 1000u, 20000u}) {
    SCOPED_TRACE(n);
    CheckFlatTableAgainstMap<PairKey, MrKeyHash<PairKey>>(PairKeys(n + 100),
                                                          n);
  }
}

// A key that counts its equality comparisons, so a test can read how far
// lookups probe without timing them.
uint64_t g_key_comparisons = 0;

struct ComparedKey {
  uint64_t value = 0;

  friend bool operator==(const ComparedKey& a, const ComparedKey& b) {
    ++g_key_comparisons;
    return a.value == b.value;
  }
};

struct ComparedKeyHash {
  uint64_t operator()(const ComparedKey& key) const {
    return MrKeyHash<uint64_t>()(key.value);
  }
};

double MeanComparisonsPerHit(const std::vector<ComparedKey>& keys) {
  FlatTable<ComparedKey, ComparedKeyHash> table;
  for (size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], static_cast<uint32_t>(i + 1));
  }
  g_key_comparisons = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i]), i + 1);
  }
  return static_cast<double>(g_key_comparisons) / keys.size();
}

// Emit routes a key to destination MrKeyHash(key) % W, so at W = 16 every
// key in destination 3's group-by index has a hash that is 3 mod 16. Those
// keys must probe about as far as keys whose hashes are free, which a home
// slot taken from the hash's low bits fails.
TEST(FlatTableTest, KeysOfOneShuffleDestinationProbeLikeAnyKeys) {
  for (size_t n : {1000u, 20000u, 400000u}) {
    std::vector<ComparedKey> routed;
    std::vector<ComparedKey> any;
    for (uint64_t x = 0; routed.size() < n; ++x) {
      if (MrKeyHash<uint64_t>()(x) % 16 == 3) routed.push_back({x});
    }
    for (uint64_t x = 0; x < n; ++x) any.push_back({x});
    const double routed_mean = MeanComparisonsPerHit(routed);
    const double any_mean = MeanComparisonsPerHit(any);
    EXPECT_LE(routed_mean, 1.5 * any_mean)
        << n << " keys: " << routed_mean << " against " << any_mean;
  }
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("ACGT", "ACGT"), 0u);
  EXPECT_EQ(EditDistance("ACGT", ""), 4u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("ACGT", "AGT"), 1u);
  EXPECT_EQ(EditDistance("ACGT", "TGCA"), 4u);
}

TEST(EditDistanceTest, BandedMatchesFullWithinLimit) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a;
    std::string b;
    size_t len = 5 + rng.Below(60);
    for (size_t i = 0; i < len; ++i) a += "ACGT"[rng.Next() & 3];
    b = a;
    size_t edits = rng.Below(8);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      switch (rng.Below(3)) {
        case 0:
          b[rng.Below(b.size())] = "ACGT"[rng.Next() & 3];
          break;
        case 1:
          b.erase(rng.Below(b.size()), 1);
          break;
        default:
          b.insert(rng.Below(b.size() + 1), 1, "ACGT"[rng.Next() & 3]);
      }
    }
    size_t full = EditDistance(a, b);
    for (size_t limit : {2u, 5u, 10u}) {
      size_t banded = BandedEditDistance(a, b, limit);
      if (full <= limit) {
        EXPECT_EQ(banded, full) << a << " vs " << b;
      } else {
        EXPECT_EQ(banded, limit + 1) << a << " vs " << b;
      }
    }
  }
}

TEST(EditDistanceTest, WithinPredicate) {
  EXPECT_TRUE(WithinEditDistance("ACGTACGT", "ACGTACGA", 5));
  EXPECT_FALSE(WithinEditDistance("AAAAAAAA", "TTTTTTTT", 5));
  EXPECT_FALSE(WithinEditDistance("ACGT", "ACGT", 0));
}

TEST(TextStoreTest, WriteReadParts) {
  std::string dir = "/tmp/ppa_text_store_test";
  std::filesystem::remove_all(dir);
  TextStore store(dir);
  store.WritePart(0, {"line a", "line b"});
  store.WritePart(3, {"line c"});
  EXPECT_EQ(store.ListParts(), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(store.ReadPart(3), (std::vector<std::string>{"line c"}));
  EXPECT_EQ(store.ReadPart(7), std::vector<std::string>{});
  EXPECT_EQ(store.ReadAll(),
            (std::vector<std::string>{"line a", "line b", "line c"}));
  EXPECT_GT(store.TotalBytes(), 0u);
  store.Clear();
  EXPECT_TRUE(store.ListParts().empty());
  std::filesystem::remove_all(dir);
}

TEST(ThreadPoolTest, RunsAllIndicesOnce) {
  for (unsigned threads : {0u, 1u, 2u, 4u}) {  // 0 = hardware concurrency
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), ThreadPool::Resolve(threads));
    EXPECT_GE(pool.num_threads(), 1u);
    std::vector<std::atomic<int>> hits(100);
    pool.Run(100, [&](uint32_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(Rng(42).Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.Below(10), 10u);
  }
}

}  // namespace
}  // namespace ppa
