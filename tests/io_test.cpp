// Tests for the sequence I/O subsystem: FastxReader (FASTA/FASTQ, plain
// and gzip), ReadStream batching/backpressure plumbing, the FASTA writers,
// and the simulated-dataset FASTQ export round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/fasta_writer.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "sim/datasets.h"
#include "sim/fastq_export.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

#if defined(PPA_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace ppa {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Read> Drain(ReadSource& source) {
  std::vector<Read> reads;
  Read read;
  while (source.Next(&read)) reads.push_back(read);
  return reads;
}

TEST(FastxReaderTest, ParsesFastqFile) {
  const std::string path = TempPath("basic.fastq");
  WriteFile(path,
            "@r1 first\nACGT\n+\nIIII\n"
            "@r2\nGGGTTT\n+r2\nIIIIII\n"
            "\n");  // trailing blank line tolerated
  FastxReader reader(path);
  std::vector<Read> reads = Drain(reader);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reader.format(), FastxFormat::kFastq);
  EXPECT_EQ(reads[0].name, "r1 first");
  EXPECT_EQ(reads[0].bases, "ACGT");
  EXPECT_EQ(reads[0].quals, "IIII");
  EXPECT_EQ(reads[1].name, "r2");
  EXPECT_EQ(reads[1].bases, "GGGTTT");
}

TEST(FastxReaderTest, ParsesMultiLineFastaWithCrlf) {
  const std::string path = TempPath("multi.fasta");
  WriteFile(path, ">s1 desc\r\nACGT\r\nACGT\r\n>s2\nTTTT\n");
  FastxReader reader(path);
  std::vector<Read> reads = Drain(reader);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reader.format(), FastxFormat::kFasta);
  EXPECT_EQ(reads[0].name, "s1 desc");
  EXPECT_EQ(reads[0].bases, "ACGTACGT");
  EXPECT_TRUE(reads[0].quals.empty());
  EXPECT_EQ(reads[1].bases, "TTTT");
}

TEST(FastxReaderTest, EmptyFileYieldsNoReads) {
  const std::string path = TempPath("empty.fastq");
  WriteFile(path, "");
  FastxReader reader(path);
  EXPECT_TRUE(Drain(reader).empty());
  EXPECT_EQ(reader.format(), FastxFormat::kUnknown);
}

TEST(FastxReaderTest, MatchesInMemoryParserOnSimulatedReads) {
  GenomeConfig genome_config;
  genome_config.length = 2000;
  genome_config.seed = 5;
  ReadSimConfig sim_config;
  sim_config.coverage = 5.0;
  std::vector<Read> reads =
      SimulateReads(GenerateGenome(genome_config), sim_config);
  const std::string path = TempPath("sim.fastq");
  WriteFile(path, WriteFastq(reads));
  std::vector<Read> expected = ParseFastq(ReadFile(path));
  FastxReader reader(path);
  std::vector<Read> actual = Drain(reader);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].bases, expected[i].bases);
    EXPECT_EQ(actual[i].quals, expected[i].quals);
  }
}

// A zero-length read is a legal FASTQ record: empty sequence and quality
// lines are record content, not whitespace. The old parser skipped them as
// blanks and mis-assembled the following record.
TEST(FastxReaderTest, ZeroLengthFastqRecordParses) {
  const std::string path = TempPath("zero_len.fastq");
  WriteFile(path,
            "@r1\n\n+\n\n"
            "@r2\nACGT\n+\nIIII\n");
  FastxReader reader(path);
  std::vector<Read> reads = Drain(reader);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].name, "r1");
  EXPECT_TRUE(reads[0].bases.empty());
  EXPECT_TRUE(reads[0].quals.empty());
  EXPECT_EQ(reads[1].name, "r2");
  EXPECT_EQ(reads[1].bases, "ACGT");
}

TEST(FastxReaderTest, BlankLinesBetweenFastqRecordsAreSkipped) {
  const std::string path = TempPath("blanks_between.fastq");
  WriteFile(path,
            "\n\n@r1\nAC\n+\nII\n"
            "\n\n\n@r2\nGT\n+\nII\n\n");
  FastxReader reader(path);
  std::vector<Read> reads = Drain(reader);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].bases, "AC");
  EXPECT_EQ(reads[1].bases, "GT");
}

// Malformed FASTQ aborts with the offending line number in the diagnostic —
// attributed to the line inside the record, not wherever a blank-skipping
// scan happened to stop.
using FastxReaderDeathTest = ::testing::Test;

TEST(FastxReaderDeathTest, BlankSeparatorLineNamesItsLine) {
  const std::string path = TempPath("blank_sep.fastq");
  WriteFile(path, "@r1\nACGT\n\nIIII\n");
  auto parse = [&] {
    FastxReader reader(path);
    Read read;
    while (reader.Next(&read)) {
    }
  };
  EXPECT_DEATH(parse(),
               ":3: malformed FASTQ record: expected '\\+' separator, got a "
               "blank line \\(record at line 1\\)");
}

TEST(FastxReaderDeathTest, TruncationAfterBlanksAttributesCorrectLines) {
  // Two leading blank lines shift the record to line 3; the missing quality
  // line is reported at line 6 and the record anchored at line 3.
  const std::string path = TempPath("truncated.fastq");
  WriteFile(path, "\n\n@r1\nACGT\n+\n");
  auto parse = [&] {
    FastxReader reader(path);
    Read read;
    while (reader.Next(&read)) {
    }
  };
  EXPECT_DEATH(parse(),
               ":6: truncated FASTQ record: missing quality line "
               "\\(record at line 3\\)");
}

TEST(FastxReaderDeathTest, QualityLengthMismatchIsFatal) {
  const std::string path = TempPath("qual_mismatch.fastq");
  WriteFile(path, "@r1\nACGT\n+\nIII\n");
  auto parse = [&] {
    FastxReader reader(path);
    Read read;
    while (reader.Next(&read)) {
    }
  };
  EXPECT_DEATH(parse(), "quality length \\(3\\) does not match sequence "
                        "length \\(4\\)");
}

TEST(FastxReaderDeathTest, UnreadableInputDiesWithDiagnostic) {
  // A directory opens but every read fails; the reader must die with a
  // FASTX diagnostic (open or read error), never parse garbage.
  const std::string dir = TempPath("a_directory");
  std::filesystem::create_directory(dir);
  auto parse = [&] {
    FastxReader reader(dir);
    Read read;
    while (reader.Next(&read)) {
    }
  };
  EXPECT_DEATH(parse(), "FASTX error");
}

#if defined(PPA_HAVE_ZLIB)
TEST(FastxReaderTest, ReadsGzipCompressedFastq) {
  const std::string text = "@r1\nACGTACGT\n+\nIIIIIIII\n@r2\nGGTT\n+\nIIII\n";
  const std::string path = TempPath("reads.fastq.gz");
  gzFile gz = gzopen(path.c_str(), "wb");
  ASSERT_NE(gz, nullptr);
  ASSERT_EQ(gzwrite(gz, text.data(), static_cast<unsigned>(text.size())),
            static_cast<int>(text.size()));
  gzclose(gz);
  FastxReader reader(path);
  std::vector<Read> reads = Drain(reader);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].bases, "ACGTACGT");
  EXPECT_EQ(reads[1].name, "r2");
}
#endif

TEST(MultiFileReadSourceTest, ConcatenatesFiles) {
  const std::string a = TempPath("a.fastq");
  const std::string b = TempPath("b.fasta");
  WriteFile(a, "@r1\nAAAA\n+\nIIII\n");
  WriteFile(b, ">r2\nCCCC\n");
  std::unique_ptr<ReadSource> source = OpenFastxFiles({a, b});
  std::vector<Read> reads = Drain(*source);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].name, "r1");
  EXPECT_EQ(reads[1].name, "r2");
  EXPECT_EQ(reads[1].bases, "CCCC");
}

std::vector<Read> NumberedReads(size_t n, size_t len) {
  std::vector<Read> reads(n);
  for (size_t i = 0; i < n; ++i) {
    reads[i].name = "r" + std::to_string(i);
    reads[i].bases.assign(len, "ACGT"[i % 4]);
  }
  return reads;
}

TEST(ReadStreamTest, BatchesRespectReadAndBaseLimits) {
  ReadStreamConfig config;
  config.batch_reads = 3;
  config.batch_bases = 1 << 20;
  ReadStream stream(std::make_unique<VectorReadSource>(NumberedReads(10, 8)),
                    config);
  size_t batches = 0, reads = 0;
  ReadBatch batch;
  while (stream.Next(&batch)) {
    ++batches;
    EXPECT_LE(batch.reads.size(), 3u);
    reads += batch.reads.size();
  }
  EXPECT_EQ(batches, 4u);  // 3+3+3+1
  EXPECT_EQ(reads, 10u);
  EXPECT_EQ(stream.total_reads(), 10u);
  EXPECT_EQ(stream.total_bases(), 80u);
  EXPECT_EQ(stream.total_batches(), 4u);

  // Base-limited batching: every read alone exceeds the base target.
  ReadStreamConfig small;
  small.batch_reads = 100;
  small.batch_bases = 4;
  ReadStream stream2(std::make_unique<VectorReadSource>(NumberedReads(5, 8)),
                     small);
  size_t batches2 = 0;
  while (stream2.Next(&batch)) ++batches2;
  EXPECT_EQ(batches2, 5u);
}

TEST(ReadStreamTest, ForEachBatchConsumesEveryReadExactlyOnce) {
  const size_t n = 257;
  ReadStreamConfig config;
  config.batch_reads = 16;
  config.queue_depth = 2;
  ReadStream stream(std::make_unique<VectorReadSource>(NumberedReads(n, 4)),
                    config);
  std::mutex mu;
  std::multiset<std::string> seen;
  stream.ForEachBatch(4, [&](ReadBatch& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Read& r : batch.reads) seen.insert(r.name);
  });
  ASSERT_EQ(seen.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen.count("r" + std::to_string(i)), 1u) << i;
  }
}

TEST(ReadStreamTest, AbandonedStreamShutsDownCleanly) {
  // Destroy the stream without draining: the reader thread must unblock.
  ReadStreamConfig config;
  config.batch_reads = 1;
  config.queue_depth = 1;
  ReadStream stream(std::make_unique<VectorReadSource>(NumberedReads(64, 4)),
                    config);
  ReadBatch batch;
  ASSERT_TRUE(stream.Next(&batch));
}

TEST(ReadStreamTest, AbandonedWithoutAnyConsumptionJoinsReader) {
  // The reader blocks on a full queue before the consumer ever calls
  // Next(); destruction alone must wake and join it. Run it many times —
  // the reader may be parked in emit's not_full wait, mid-parse, or
  // already done when the destructor fires.
  for (int round = 0; round < 20; ++round) {
    ReadStreamConfig config;
    config.batch_reads = 1;
    config.queue_depth = 1;
    ReadStream stream(
        std::make_unique<VectorReadSource>(NumberedReads(128, 16)), config);
    // No Next() at all.
  }
}

TEST(ReadStreamTest, AbandonAfterReaderFinishedJoinsReader) {
  // Tiny source: the reader finishes (done_) long before destruction; the
  // destructor's stop signal must not deadlock against an exited reader.
  ReadStream stream(std::make_unique<VectorReadSource>(NumberedReads(2, 4)));
  ReadBatch batch;
  ASSERT_TRUE(stream.Next(&batch));
  // Remaining batch left unconsumed.
}

TEST(FastaWriterTest, ContigsRoundTripThroughParser) {
  std::vector<ContigRecord> contigs(2);
  contigs[0].id = 7;
  contigs[0].seq = PackedSequence::FromString(std::string(170, 'A') + "CGT");
  contigs[0].coverage = 12;
  contigs[1].id = 9;
  contigs[1].seq = PackedSequence::FromString("ACGTACGT");
  contigs[1].circular = true;
  std::ostringstream out;
  WriteContigsFasta(out, contigs);
  const std::string fasta = out.str();
  std::vector<Read> parsed = ParseFasta(fasta);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "contig_7 length=173 coverage=12 circular=0");
  EXPECT_EQ(parsed[0].bases, contigs[0].seq.ToString());
  EXPECT_EQ(parsed[1].name, "contig_9 length=8 coverage=0 circular=1");
  EXPECT_EQ(parsed[1].bases, "ACGTACGT");
  // 80-column wrapping: the 173 bp contig occupies 3 sequence lines.
  EXPECT_EQ(std::count(fasta.begin(), fasta.end(), '\n'), 2 + 3 + 1);
}

TEST(FastqExportTest, SimulatedDatasetRoundTripsExactly) {
  Dataset dataset = MakeDataset(DatasetId::kHc2, 0.01);
  ASSERT_FALSE(dataset.reads.empty());
  const std::string prefix = TempPath("hc2_export");
  std::vector<std::string> written = ExportDatasetFastq(dataset, prefix);
  ASSERT_EQ(written.size(), 2u);  // reads + reference

  FastxReader reader(written[0]);
  std::vector<Read> parsed = Drain(reader);
  ASSERT_EQ(parsed.size(), dataset.reads.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    const Read expected = NormalizedFastqRead(dataset.reads[i]);
    EXPECT_EQ(parsed[i].name, expected.name) << i;
    EXPECT_EQ(parsed[i].bases, expected.bases) << i;
    EXPECT_EQ(parsed[i].quals, expected.quals) << i;
  }

  FastxReader ref_reader(written[1]);
  std::vector<Read> ref = Drain(ref_reader);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0].bases, dataset.reference.ToString());
}

}  // namespace
}  // namespace ppa
