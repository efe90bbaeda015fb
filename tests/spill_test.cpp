// Tests for the external spill subsystem (spill/spill.h), its consumers
// (the shuffle and the fleet's chunk journal), and the counter's budgeted
// queue bound. The headline properties:
//
//   * readback corruption — truncated file, bad magic, CRC mismatch, a
//     record length past EOF — fails with a diagnostic, never a silently
//     short record stream;
//   * the temp directory is removed on success AND on early-destruction
//     paths;
//   * runs under a 1-byte budget (every shuffle chunk spills) and under a
//     budget of several chunks (chunks that fit stay in memory) are
//     bit-identical to runs without a budget, for shuffle outputs and for
//     whole-pipeline contigs across a k x shards x threads grid, with peak
//     resident chunk bytes held within max(budget, one chunk payload);
//     budgeted counter sessions match the serial counter, hold their queue
//     bound and write no spill file.
#include "spill/spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/assembler.h"
#include "dbg/kmer_counter.h"
#include "dna/superkmer.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "net/journal.h"
#include "pregel/mapreduce.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace ppa {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC32 + MemoryBudget
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownAnswers) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Extension across discontiguous buffers equals one pass.
  const uint32_t head = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, head), 0xCBF43926u);
}

TEST(MemoryBudgetTest, TracksResidentAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.budget_bytes(), 1000u);
  budget.ChargeBlocking(400);
  budget.ChargeBlocking(500);
  EXPECT_EQ(budget.resident_bytes(), 900u);
  budget.Release(600);
  EXPECT_EQ(budget.resident_bytes(), 300u);
  EXPECT_EQ(budget.peak_resident_bytes(), 900u);
  ASSERT_TRUE(budget.TryChargePinned(100, /*reserve=*/0));
  EXPECT_EQ(budget.resident_bytes(), 400u);
  // Atomic check-and-charge: admits only what fits, charges nothing on
  // refusal.
  EXPECT_FALSE(budget.TryChargePinned(601, /*reserve=*/0));
  EXPECT_TRUE(budget.TryChargePinned(600, /*reserve=*/0));
  EXPECT_FALSE(budget.TryChargePinned(1, /*reserve=*/0));
  EXPECT_EQ(budget.resident_bytes(), 1000u);
  budget.ReleasePinned(600);
  budget.ReleasePinned(100);
  budget.Release(300);
  EXPECT_EQ(budget.resident_bytes(), 0u);
  EXPECT_EQ(budget.peak_resident_bytes(), 1000u);
}

// The shuffle's pin rule: a pin leaves `reserve` bytes free, so the
// unconditional charge ChargeBlocking grants once only pinned bytes remain
// (one spill payload of at most `reserve` bytes) still fits the budget.
TEST(MemoryBudgetTest, PinsLeaveTheReserveFree) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryChargePinned(600, /*reserve=*/400));
  EXPECT_FALSE(budget.TryChargePinned(1, /*reserve=*/400));
  EXPECT_EQ(budget.resident_bytes(), 600u);
  budget.ChargeBlocking(400);  // one payload still fits beside the pins
  EXPECT_EQ(budget.peak_resident_bytes(), 1000u);
  budget.Release(400);
  budget.ReleasePinned(600);
  // A budget below the reserve pins nothing, so the peak is one charge.
  MemoryBudget tiny(1);
  EXPECT_FALSE(tiny.TryChargePinned(1, /*reserve=*/400));
  tiny.ChargeBlocking(400);
  EXPECT_EQ(tiny.peak_resident_bytes(), 400u);
  tiny.Release(400);
}

// ---------------------------------------------------------------------------
// SpillManager / SpillReader round trips
// ---------------------------------------------------------------------------

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) out.push_back(static_cast<uint8_t>(v));
  return out;
}

TEST(SpillManagerTest, RoundTripsRecordsInWriteOrder) {
  std::string dir;
  {
    SpillManager manager;
    dir = manager.dir();
    EXPECT_TRUE(fs::is_directory(dir));
    const uint32_t a = manager.NewFile("shard-a");
    const uint32_t b = manager.NewFile("shard b/../evil");  // sanitized
    manager.Append(a, Bytes({1, 2, 3}));
    manager.Append(b, Bytes({9}));
    manager.Append(a, Bytes({}));  // empty payloads are legal records
    manager.Append(a, Bytes({4, 5}));
    ASSERT_TRUE(manager.Sync()) << manager.error();
    // The ledger counts appends per file.
    SpillStats stats = manager.Stats({a, b});
    EXPECT_EQ(stats.spilled_chunks, 4u);
    EXPECT_EQ(stats.spilled_bytes, 6u);
    EXPECT_EQ(stats.spill_files, 2u);
    EXPECT_EQ(stats.readback_chunks, 0u);
    // The sanitized path stays inside the spill directory.
    EXPECT_EQ(fs::path(manager.FilePath(b)).parent_path(), fs::path(dir));

    std::vector<std::vector<uint8_t>> got;
    std::string error;
    ASSERT_TRUE(manager.Replay(
        a,
        [&got](const std::vector<uint8_t>& payload, std::string*) {
          got.push_back(payload);
          return true;
        },
        &error))
        << error;
    EXPECT_EQ(got, (std::vector<std::vector<uint8_t>>{
                       Bytes({1, 2, 3}), Bytes({}), Bytes({4, 5})}));
    stats = manager.Stats({a});
    EXPECT_EQ(stats.readback_chunks, 3u);
    EXPECT_EQ(stats.readback_bytes, 5u);
  }
  // Success path: the directory is gone with the manager.
  EXPECT_FALSE(fs::exists(dir));
}

TEST(SpillManagerTest, PerFileOrderHoldsAcrossWriterPool) {
  SpillManager::Config config;
  config.writer_threads = 3;
  SpillManager manager(config);
  std::vector<uint32_t> files;
  for (int f = 0; f < 5; ++f) {
    files.push_back(manager.NewFile("f" + std::to_string(f)));
  }
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    for (uint32_t file : files) {
      manager.Append(file, Bytes({i & 0xFF, (i >> 8) & 0xFF}));
    }
  }
  ASSERT_TRUE(manager.Sync()) << manager.error();
  for (uint32_t file : files) {
    int i = 0;
    std::string error;
    ASSERT_TRUE(manager.Replay(
        file,
        [&i](const std::vector<uint8_t>& payload, std::string*) {
          EXPECT_EQ(payload, Bytes({i & 0xFF, (i >> 8) & 0xFF}));
          ++i;
          return true;
        },
        &error))
        << error;
    EXPECT_EQ(i, kRecords);
  }
}

TEST(SpillManagerTest, NeverAppendedFileReplaysAsZeroRecords) {
  SpillManager manager;
  const uint32_t file = manager.NewFile("empty");
  ASSERT_TRUE(manager.Sync()) << manager.error();
  int fed = 0;
  std::string error;
  EXPECT_TRUE(manager.Replay(
      file,
      [&fed](const std::vector<uint8_t>&, std::string*) {
        ++fed;
        return true;
      },
      &error))
      << error;
  EXPECT_EQ(fed, 0);
  EXPECT_FALSE(fs::exists(manager.FilePath(file)));
  const SpillStats stats = manager.Stats({file});
  EXPECT_EQ(stats.spilled_chunks, 0u);
  EXPECT_EQ(stats.spill_files, 0u);
  EXPECT_EQ(stats.readback_chunks, 0u);
}

TEST(SpillManagerTest, ReplayRefusesARecordTheConsumerRejects) {
  SpillManager manager;
  const uint32_t file = manager.NewFile("rejected");
  manager.Append(file, Bytes({1}));
  manager.Append(file, Bytes({2}));
  manager.Append(file, Bytes({3}));
  ASSERT_TRUE(manager.Sync()) << manager.error();
  std::vector<uint8_t> fed;
  std::string error;
  EXPECT_FALSE(manager.Replay(
      file,
      [&fed](const std::vector<uint8_t>& payload, std::string* why) {
        if (payload == Bytes({2})) {
          *why = "payload two is not welcome";
          return false;
        }
        fed.push_back(payload[0]);
        return true;
      },
      &error));
  EXPECT_EQ(fed, Bytes({1}));  // nothing after the refused record
  EXPECT_NE(error.find(manager.FilePath(file)), std::string::npos) << error;
  EXPECT_NE(error.find("record #1"), std::string::npos) << error;
  EXPECT_NE(error.find("payload two is not welcome"), std::string::npos)
      << error;
  EXPECT_EQ(manager.Stats({file}).readback_chunks, 0u);
}

/// Number of spill files left in `dir`.
size_t SpillFilesIn(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    n += entry.path().extension() == ".spill" ? 1 : 0;
  }
  return n;
}

// Discard deletes a replayed file at once but keeps its ledger; appending
// to a discarded file is a program error.
TEST(SpillManagerTest, DiscardDeletesTheFileAndKeepsItsLedger) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The death test's child dies with its spill directory in place; a
  // parent directory of the test's own lets the test remove it.
  SpillManager::Config config;
  config.parent_dir = ::testing::TempDir() + "/ppa_discard_test";
  {
    SpillManager manager(config);
    const uint32_t kept = manager.NewFile("kept");
    const uint32_t gone = manager.NewFile("gone");
    manager.Append(kept, Bytes({1}));
    manager.Append(gone, Bytes({2, 3}));
    manager.Append(gone, Bytes({4}));
    ASSERT_TRUE(manager.Sync()) << manager.error();
    std::string error;
    ASSERT_TRUE(manager.Replay(
        gone, [](const std::vector<uint8_t>&, std::string*) { return true; },
        &error))
        << error;
    manager.Discard(gone);
    EXPECT_FALSE(fs::exists(manager.FilePath(gone)));
    EXPECT_TRUE(fs::exists(manager.FilePath(kept)));
    EXPECT_EQ(SpillFilesIn(manager.dir()), 1u);
    const SpillStats stats = manager.Stats({gone});
    EXPECT_EQ(stats.spilled_chunks, 2u);
    EXPECT_EQ(stats.spilled_bytes, 3u);
    EXPECT_EQ(stats.spill_files, 1u);
    EXPECT_EQ(stats.readback_chunks, 2u);
    EXPECT_EQ(stats.readback_bytes, 3u);
    EXPECT_DEATH(manager.Append(gone, Bytes({5})), "discarded");
  }
  fs::remove_all(config.parent_dir);
}

TEST(SpillManagerTest, DirRemovedOnEarlyDestructionWithQueuedWrites) {
  std::string dir;
  int done_calls = 0;
  {
    SpillManager manager;
    dir = manager.dir();
    const uint32_t f = manager.NewFile("abandoned");
    for (int i = 0; i < 64; ++i) {
      manager.Append(f, std::vector<uint8_t>(4096, 0x5A),
                     [&done_calls] { ++done_calls; });
    }
    // No Sync: destruction must drain (so every done callback runs) and
    // then remove the directory.
  }
  EXPECT_EQ(done_calls, 64);
  EXPECT_FALSE(fs::exists(dir));
}

// A nonzero budget alone creates the run's context; without one nothing is
// allocated, not even the temp directory.
TEST(SpillManagerTest, MakeSpillContextNeedsABudget) {
  EXPECT_EQ(MakeSpillContext("", 0), nullptr);
  std::unique_ptr<SpillContext> context = MakeSpillContext("", 123);
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->budget.budget_bytes(), 123u);
  EXPECT_TRUE(fs::is_directory(context->manager.dir()));
}

// ---------------------------------------------------------------------------
// Readback corruption: every damage mode is a diagnostic, never a silently
// short stream.
// ---------------------------------------------------------------------------

/// Writes a one-file spill store with three records and returns the file's
/// path inside `dir` (copied out so the manager can be destroyed).
std::string WriteCorruptibleFile(const std::string& copy_to) {
  SpillManager manager;
  const uint32_t f = manager.NewFile("victim");
  manager.Append(f, Bytes({10, 11, 12, 13}));
  manager.Append(f, Bytes({20, 21}));
  manager.Append(f, Bytes({30, 31, 32}));
  EXPECT_TRUE(manager.Sync());
  fs::copy_file(manager.FilePath(f), copy_to,
                fs::copy_options::overwrite_existing);
  return copy_to;
}

std::string CorruptionTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Reads records until Next() stops; returns how many were delivered.
uint64_t DrainReader(SpillReader& reader) {
  std::vector<uint8_t> payload;
  uint64_t n = 0;
  while (reader.Next(&payload)) ++n;
  return n;
}

TEST(SpillReaderTest, MissingFileIsEmptyAndOk) {
  SpillReader reader(CorruptionTempPath("never_written.spill"));
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_TRUE(reader.ok());
}

TEST(SpillReaderTest, BadMagicFails) {
  const std::string path =
      WriteCorruptibleFile(CorruptionTempPath("bad_magic.spill"));
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xFF;
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("bad magic"), std::string::npos)
      << reader.error();
}

TEST(SpillReaderTest, HeaderShorterThanMagicFails) {
  const std::string path = CorruptionTempPath("stub.spill");
  WriteAll(path, Bytes({'P', 'P', 'A'}));
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("bad magic"), std::string::npos);
}

TEST(SpillReaderTest, TruncatedFileFailsInsteadOfShortStream) {
  const std::string path =
      WriteCorruptibleFile(CorruptionTempPath("truncated.spill"));
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 2);  // cut into the last record's payload
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 2u);  // the two intact records
  EXPECT_FALSE(reader.ok()) << "a truncated file must not read as short";
  EXPECT_NE(reader.error().find("past end of file"), std::string::npos)
      << reader.error();
}

TEST(SpillReaderTest, CrcMismatchFails) {
  const std::string path =
      WriteCorruptibleFile(CorruptionTempPath("crc.spill"));
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.back() ^= 0x01;  // flip a payload bit of the last record
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 2u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("CRC mismatch"), std::string::npos)
      << reader.error();
}

TEST(SpillReaderTest, RecordLengthPastEofFails) {
  const std::string path = CorruptionTempPath("huge_len.spill");
  std::vector<uint8_t> bytes(SpillReader::kMagic,
                             SpillReader::kMagic + 8);
  // Varint 0xFF 0xFF 0x7F = 2097151 bytes claimed, none present.
  bytes.push_back(0xFF);
  bytes.push_back(0xFF);
  bytes.push_back(0x7F);
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("past end of file"), std::string::npos)
      << reader.error();
}

TEST(SpillReaderTest, NearMaxRecordLengthFailsWithoutOverflow) {
  // A length varint decoding to 2^64-1: the naive `4 + length > remaining`
  // bound check would wrap and admit it, then crash in resize(). It must
  // be the same past-EOF diagnostic as any other oversized length.
  const std::string path = CorruptionTempPath("wrap_len.spill");
  std::vector<uint8_t> bytes(SpillReader::kMagic,
                             SpillReader::kMagic + 8);
  for (int i = 0; i < 9; ++i) bytes.push_back(0xFF);
  bytes.push_back(0x01);  // varint(0xFFFFFFFFFFFFFFFF)
  bytes.push_back(0x00);  // a stray byte so remaining > 0
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("past end of file"), std::string::npos)
      << reader.error();
}

// Fuzz-ish sweep: every single-bit flip anywhere in a valid spill file —
// magic, length varints, CRCs, payloads — must surface as a failed reader,
// never a clean stream with altered content (CRC-32 catches any single-bit
// damage in a record; a damaged length misframes into a CRC or EOF error).
TEST(SpillReaderTest, EverySingleBitFlipIsRejected) {
  const std::string path =
      WriteCorruptibleFile(CorruptionTempPath("bitflip.spill"));
  const std::vector<uint8_t> good = ReadAll(path);
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = good;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      WriteAll(path, mutated);
      SpillReader reader(path);
      DrainReader(reader);
      EXPECT_FALSE(reader.ok())
          << "byte " << i << " bit " << bit << " read back as a clean file";
      EXPECT_FALSE(reader.error().empty()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(SpillReaderTest, TruncatedLengthVarintFails) {
  const std::string path = CorruptionTempPath("bad_varint.spill");
  std::vector<uint8_t> bytes(SpillReader::kMagic,
                             SpillReader::kMagic + 8);
  bytes.push_back(0x80);  // continuation bit set, then EOF
  WriteAll(path, bytes);
  SpillReader reader(path);
  EXPECT_EQ(DrainReader(reader), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("truncated record length"),
            std::string::npos)
      << reader.error();
}

// ---------------------------------------------------------------------------
// CounterSession under a spill context: the budget caps the queue bound.
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

/// Feeds `reads` to one session from two AddBatch callers at once, in
/// interleaved 64-read batches.
MerCounts RunSession(const std::vector<Read>& reads, KmerCountConfig config,
                     SpillContext* spill, KmerCountStats* stats) {
  config.spill = spill;
  CounterSession session(config);
  constexpr size_t kBatch = 64;
  constexpr size_t kCallers = 2;
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t begin = c * kBatch; begin < reads.size();
           begin += kCallers * kBatch) {
        session.AddBatch(reads.data() + begin,
                         std::min(kBatch, reads.size() - begin));
      }
    });
  }
  for (auto& t : callers) t.join();
  return session.Finish(stats);
}

// Budgeted local sessions keep every chunk in the shard rings: without a
// budget, with a 1-byte budget and with one of several chunks, the counts
// match the serial counter, the budget caps the queue bound (floored at
// one chunk), the bound holds, and the spill directory stays empty.
TEST(CounterSessionSpillTest, BudgetsMatchSerialAcrossGrid) {
  const std::vector<Read> reads = SimulatedReads(15000, 10.0, 7);
  // The counter's smallest bound: its 32 KiB flush threshold plus one
  // maximal super-k-mer record (dbg/kmer_counter.cpp).
  constexpr uint64_t kOneChunk = (32 << 10) + kMaxSuperkmerRecordBytes;
  for (int k : {15, 31}) {
    for (uint32_t shards : {1u, 8u}) {
      for (unsigned threads : {1u, 4u}) {
        KmerCountConfig config;
        config.mer_length = k;
        config.num_workers = 4;
        config.coverage_threshold = 2;
        config.num_shards = shards;
        config.num_threads = threads;
        KmerCountStats serial_stats;
        const auto expected = SortedPartitions(
            CountCanonicalMersSerial(reads, config, &serial_stats));

        for (uint64_t budget : {uint64_t{0}, uint64_t{1},
                                uint64_t{128} << 10}) {
          std::unique_ptr<SpillContext> context = MakeSpillContext("", budget);
          KmerCountStats stats;
          const auto actual = SortedPartitions(
              RunSession(reads, config, context.get(), &stats));
          const std::string label =
              "k=" + std::to_string(k) + " shards=" + std::to_string(shards) +
              " threads=" + std::to_string(threads) +
              " budget=" + std::to_string(budget);
          EXPECT_EQ(actual, expected) << label;
          EXPECT_EQ(stats.total_windows, serial_stats.total_windows) << label;
          EXPECT_EQ(stats.distinct_mers, serial_stats.distinct_mers) << label;
          EXPECT_LE(stats.peak_queued_bytes, stats.queue_bound_bytes)
              << label;
          if (context == nullptr) {
            EXPECT_EQ(stats.queue_bound_bytes,
                      CounterSession::kDefaultMaxQueuedBytes)
                << label;
            continue;
          }
          EXPECT_LE(stats.queue_bound_bytes, std::max(budget, kOneChunk))
              << label;
          // The counter neither spills nor charges the budget.
          EXPECT_TRUE(fs::is_empty(context->manager.dir())) << label;
          EXPECT_EQ(context->budget.peak_resident_bytes(), 0u) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shuffle-engine spill equivalence.
// ---------------------------------------------------------------------------

/// A shuffle workload with enough pairs to seal many chunks: key = value
/// bucket, reduce = ordered concatenation marker (order-sensitive, so any
/// readback misordering changes the output).
Partitioned<std::pair<uint64_t, uint64_t>> RunSumJob(SpillContext* spill,
                                                     RunStats* stats) {
  constexpr uint32_t kWorkers = 8;
  std::vector<uint64_t> data(40000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i;
  Partitioned<uint64_t> input = Scatter(data, kWorkers);

  auto map_fn = [](const uint64_t& x, auto& emitter) {
    emitter.Emit(x % 1024, x);
  };
  auto reduce_fn = [](const uint64_t& key, std::span<uint64_t> group,
                      std::vector<std::pair<uint64_t, uint64_t>>& out) {
    // Order-sensitive mix: misordered values change the result.
    uint64_t acc = 0;
    for (uint64_t v : group) acc = acc * 1000003 + v;
    out.emplace_back(key, acc);
  };

  MapReduceConfig config;
  config.num_workers = kWorkers;
  config.num_threads = 4;
  config.job_name = "spill-sum-test";
  config.spill = spill;
  return RunMapReduce<uint64_t, uint64_t, uint64_t,
                      std::pair<uint64_t, uint64_t>>(input, map_fn, reduce_fn,
                                                     config, stats);
}

// A 1-byte budget pins nothing, so every sealed chunk goes through disk; a
// budget of several chunks keeps the chunks that fit with room for one
// more spill payload and spills the rest, holding its peak under the
// budget. Both match the run without a budget.
TEST(ShuffleSpillTest, BudgetsMatchTheRunWithoutABudget) {
  RunStats unbudgeted_stats;
  const auto expected = RunSumJob(nullptr, &unbudgeted_stats);
  EXPECT_EQ(unbudgeted_stats.spill.spilled_chunks, 0u);
  constexpr uint64_t kPairBytes = 2 * sizeof(uint64_t);
  for (uint64_t budget : {uint64_t{1}, uint64_t{64} << 10}) {
    std::unique_ptr<SpillContext> context = MakeSpillContext("", budget);
    RunStats stats;
    const auto actual = RunSumJob(context.get(), &stats);
    const std::string label = "budget=" + std::to_string(budget);
    EXPECT_EQ(actual, expected) << label;
    EXPECT_GT(stats.spill.spilled_chunks, 0u) << label;
    EXPECT_GT(stats.spill.spill_files, 0u) << label;
    EXPECT_EQ(stats.spill.readback_chunks, stats.spill.spilled_chunks)
        << label;
    EXPECT_EQ(stats.spill.readback_bytes, stats.spill.spilled_bytes)
        << label;
    // Each destination file was deleted right after its replay.
    EXPECT_EQ(SpillFilesIn(context->manager.dir()), 0u) << label;
    if (budget == 1) {
      // Nothing pinned: every pair went to disk.
      EXPECT_GE(stats.spill.spilled_bytes, stats.pairs_shuffled * kPairBytes);
    } else {
      // Chunks that fit stayed in memory, and the peak held the budget.
      EXPECT_LT(stats.spill.spilled_bytes, stats.pairs_shuffled * kPairBytes);
      EXPECT_LE(context->budget.peak_resident_bytes(), budget);
    }
  }
}

// ---------------------------------------------------------------------------
// Damaged spill files: a lane that lost its last record, or gained a
// duplicate of it, stops its consumer with a diagnostic naming the file.
// Both damages leave a cleanly framed file, so only the record count
// catches them.
// ---------------------------------------------------------------------------

enum class Damage { kDropLastRecord, kDuplicateLastRecord };

const char* DamageName(Damage damage) {
  return damage == Damage::kDropLastRecord ? "drop-last" : "duplicate-last";
}

/// Cuts a spill file's last record off, or appends a copy of it, walking
/// the record framing (varint length, 4-byte CRC, payload) after the magic.
void DamageSpillFile(const std::string& path, Damage damage) {
  std::vector<uint8_t> bytes = ReadAll(path);
  size_t pos = sizeof(SpillReader::kMagic);
  size_t last = bytes.size();
  while (pos < bytes.size()) {
    last = pos;
    uint64_t length = 0;
    ASSERT_TRUE(GetVarint64(bytes.data(), bytes.size(), &pos, &length));
    pos += sizeof(uint32_t) + length;
  }
  ASSERT_EQ(pos, bytes.size()) << path;
  ASSERT_LT(last, bytes.size()) << path << " holds no record";
  if (damage == Damage::kDropLastRecord) {
    bytes.resize(last);
  } else {
    const std::vector<uint8_t> record(bytes.begin() + last, bytes.end());
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  WriteAll(path, bytes);
}

TEST(SpillDamageTest, ReplayRefusesAShortOrLongFile) {
  for (Damage damage :
       {Damage::kDropLastRecord, Damage::kDuplicateLastRecord}) {
    SpillManager manager;
    const uint32_t file = manager.NewFile("counted");
    manager.Append(file, Bytes({1, 1}));
    manager.Append(file, Bytes({2, 2}));
    manager.Append(file, Bytes({3, 3}));
    ASSERT_TRUE(manager.Sync()) << manager.error();
    const std::string path = manager.FilePath(file);
    DamageSpillFile(path, damage);
    std::vector<std::vector<uint8_t>> fed;
    std::string error;
    EXPECT_FALSE(manager.Replay(
        file,
        [&fed](const std::vector<uint8_t>& payload, std::string*) {
          fed.push_back(payload);
          return true;
        },
        &error))
        << DamageName(damage);
    const bool short_file = damage == Damage::kDropLastRecord;
    EXPECT_NE(error.find(path + (short_file ? " holds 2 records, expected 3"
                                            : " holds 4 records, expected 3")),
              std::string::npos)
        << error;
    // A surplus record is counted but never fed.
    EXPECT_EQ(fed.size(), short_file ? 2u : 3u) << DamageName(damage);
    EXPECT_EQ(manager.Stats({file}).readback_chunks, 0u);
  }
}

TEST(SpillDamageTest, ShuffleRefusesADestinationFileThatLostOrGainedARecord) {
  for (Damage damage :
       {Damage::kDropLastRecord, Damage::kDuplicateLastRecord}) {
    // A 1-byte budget pins nothing, so every offered chunk reaches disk.
    std::unique_ptr<SpillContext> context = MakeSpillContext("", 1);
    mr_internal::ShuffleSpill<uint64_t, uint64_t> spill(context.get(),
                                                        "damage-test", 2);
    ASSERT_TRUE(spill.enabled());
    const std::vector<std::pair<uint64_t, uint64_t>> chunk = {{1, 10},
                                                              {2, 20}};
    for (uint32_t src = 0; src < 2; ++src) {
      for (uint64_t seq = 0; seq < 3; ++seq) {
        ASSERT_TRUE(spill.OfferSealed(src, /*dst=*/0, seq, chunk));
      }
    }
    spill.SyncOrThrow();
    // Destination 0's file is the first one registered on the manager.
    const std::string path = context->manager.FilePath(0);
    ASSERT_NE(path.find("damage-test-dst-0"), std::string::npos) << path;
    DamageSpillFile(path, damage);
    std::string error;
    spill.ReadBack(0, &error);
    EXPECT_NE(error.find(path), std::string::npos)
        << DamageName(damage) << ": " << error;
    EXPECT_NE(error.find("records"), std::string::npos)
        << DamageName(damage) << ": " << error;
  }
}

TEST(SpillDamageTest, JournalRefusesAShardFileThatLostOrGainedARecord) {
  for (Damage damage :
       {Damage::kDropLastRecord, Damage::kDuplicateLastRecord}) {
    SpillManager manager;
    net::ChunkJournal::Options options;
    options.num_shards = 1;
    options.spill = &manager;
    options.fallback_budget_bytes = 64;  // two chunks stay, the rest spill
    net::ChunkJournal journal(options);
    for (uint8_t i = 0; i < 10; ++i) {
      journal.Append(0, std::vector<uint8_t>(32, i));
    }
    ASSERT_GT(journal.spilled_bytes(), 0u);
    ASSERT_TRUE(manager.Sync()) << manager.error();
    // Shard 0's overflow file is the first one registered on the manager.
    const std::string path = manager.FilePath(0);
    ASSERT_NE(path.find("journal-shard-0"), std::string::npos) << path;
    DamageSpillFile(path, damage);
    std::string error;
    EXPECT_FALSE(journal.Replay(
        0, [](const std::vector<uint8_t>&) {}, &error))
        << DamageName(damage);
    EXPECT_NE(error.find(path), std::string::npos)
        << DamageName(damage) << ": " << error;
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline equivalence grid: bit-identical contigs.
// ---------------------------------------------------------------------------

std::vector<std::string> SortedContigs(const AssemblyResult& result) {
  std::vector<std::string> contigs = result.ContigStrings();
  std::sort(contigs.begin(), contigs.end());
  return contigs;
}

// Whole runs without a budget, under a 1-byte budget and under a budget of
// several chunks give the same contigs and counts. The 1-byte run spills
// every chunk of every job that shuffled; the several-chunk run keeps the
// chunks that fit, so it spills less, and holds its peak under the budget.
TEST(PipelineSpillTest, ContigsBitIdenticalAcrossGrid) {
  const std::vector<Read> reads = SimulatedReads(15000, 10.0, 23);
  // The counter's smallest bound: its 32 KiB flush threshold plus one
  // maximal super-k-mer record (dbg/kmer_counter.cpp).
  constexpr uint64_t kOneChunk = (32 << 10) + kMaxSuperkmerRecordBytes;
  constexpr uint64_t kSeveralChunks = 256 << 10;
  for (int k : {15, 31}) {
    for (uint32_t shards : {1u, 8u}) {
      for (unsigned threads : {1u, 4u}) {
        AssemblerOptions options;
        options.k = k;
        options.num_workers = 4;
        options.num_threads = threads;
        options.kmer_shards = shards;
        ReadStream stream(std::make_unique<VectorReadSource>(reads));
        const AssemblyResult unbudgeted = Assembler(options).Assemble(stream);
        EXPECT_EQ(unbudgeted.spill_peak_resident_bytes, 0u);
        EXPECT_EQ(unbudgeted.stats.total_spill().spilled_bytes, 0u);

        uint64_t one_byte_spilled = 0;
        for (uint64_t budget : {uint64_t{1}, kSeveralChunks}) {
          options.memory_budget_bytes = budget;
          ReadStream budget_stream(std::make_unique<VectorReadSource>(reads));
          const AssemblyResult run =
              Assembler(options).Assemble(budget_stream);
          const std::string label =
              "k=" + std::to_string(k) + " shards=" + std::to_string(shards) +
              " threads=" + std::to_string(threads) +
              " budget=" + std::to_string(budget);
          EXPECT_EQ(SortedContigs(run), SortedContigs(unbudgeted)) << label;
          EXPECT_EQ(run.count_stats.surviving_mers,
                    unbudgeted.count_stats.surviving_mers)
              << label;
          EXPECT_EQ(run.kmer_vertices, unbudgeted.kmer_vertices) << label;
          EXPECT_EQ(run.spill_budget_bytes, budget) << label;
          EXPECT_LE(run.count_stats.queue_bound_bytes,
                    std::max(budget, kOneChunk))
              << label;
          const SpillStats spill = run.stats.total_spill();
          EXPECT_GT(spill.spilled_bytes, 0u) << label;
          EXPECT_EQ(spill.readback_bytes, spill.spilled_bytes) << label;
          for (const RunStats& job : run.stats.jobs) {
            EXPECT_EQ(job.spill.readback_chunks, job.spill.spilled_chunks)
                << label << " " << job.job_name;
            // Every shuffle ships flat records, so under a 1-byte budget
            // every job that shuffled anything spilled.
            if (budget == 1 && job.pairs_shuffled != 0) {
              EXPECT_GT(job.spill.spilled_chunks, 0u)
                  << label << " " << job.job_name;
            }
          }
          if (budget == 1) {
            one_byte_spilled = spill.spilled_bytes;
          } else {
            // The acceptance bound: resident chunk bytes stayed under the
            // budget, and the chunks that fit stayed in memory.
            EXPECT_LE(run.spill_peak_resident_bytes, budget) << label;
            EXPECT_LT(spill.spilled_bytes, one_byte_spilled) << label;
          }
        }
      }
    }
  }
}

// The std::vector<Read> adapter wires the budget like the stream path.
TEST(PipelineSpillTest, BudgetsMatchNoBudgetOnInMemoryPipeline) {
  const std::vector<Read> reads = SimulatedReads(15000, 10.0, 31);
  AssemblerOptions options;
  options.k = 21;
  options.num_workers = 4;
  options.num_threads = 2;
  const AssemblyResult unbudgeted = Assembler(options).Assemble(reads);

  for (uint64_t budget : {uint64_t{1}, uint64_t{64} << 10}) {
    options.memory_budget_bytes = budget;
    const AssemblyResult run = Assembler(options).Assemble(reads);
    const std::string label = "budget=" + std::to_string(budget);
    EXPECT_EQ(SortedContigs(run), SortedContigs(unbudgeted)) << label;
    const SpillStats spill = run.stats.total_spill();
    EXPECT_GT(spill.spilled_bytes, 0u) << label;
    EXPECT_EQ(spill.readback_bytes, spill.spilled_bytes) << label;
    if (budget != 1) {
      EXPECT_LE(run.spill_peak_resident_bytes, budget) << label;
    }
  }
}

}  // namespace
}  // namespace ppa
