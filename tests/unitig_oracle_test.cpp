// Independent reference for operations 1-3: after round-1 contig labeling
// and merging, the pipeline's contig multiset must equal the unitigs of a
// textbook de Bruijn graph, under both labeling methods.
//
// The reference shares no code with the pipeline. It counts canonical
// (k+1)-mers with std::map and keeps those seen at least theta times;
// vertices are canonical k-mers and each kept (k+1)-mer joins the k-mers at
// its two ends. A vertex is ambiguous if it has a self-loop or more than one
// edge at one end (Sec. IV.A). Contigs are the maximal paths of unambiguous
// vertices, minus each non-circular path that has a dead end and is at most
// tip_length_threshold bases long (the merge-time rule of Sec. IV.B-3).
// Both sides are compared as sorted lists of canonical forms: the smaller
// strand of a linear contig, the smallest rotation over both strands of a
// circular contig's cycle word.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/assembler.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "util/random.h"

namespace ppa {
namespace {

std::string RevComp(const std::string& s) {
  std::string r(s.rbegin(), s.rend());
  for (char& c : r) {
    c = c == 'A' ? 'T' : c == 'C' ? 'G' : c == 'G' ? 'C' : 'A';
  }
  return r;
}

std::string Canonical(const std::string& s) {
  return std::min(s, RevComp(s));
}

/// Canonical form of a contig; `seq` of a circular one repeats its first
/// k-1 bases at the end.
std::string ContigKey(const std::string& seq, bool circular, int k) {
  if (!circular) return "linear " + Canonical(seq);
  const std::string word = seq.substr(0, seq.size() - (k - 1));
  std::string best;
  for (const std::string& w : {word, RevComp(word)}) {
    for (size_t i = 0; i < w.size(); ++i) {
      const std::string rotation = w.substr(i) + w.substr(0, i);
      if (best.empty() || rotation < best) best = rotation;
    }
  }
  return "circular " + best;
}

std::vector<std::string> ReferenceContigs(
    const std::vector<std::string>& reads, int k, uint32_t theta,
    uint32_t tip_threshold) {
  std::map<std::string, uint32_t> counts;
  for (const std::string& read : reads) {
    for (size_t i = 0; i + k + 1 <= read.size(); ++i) {
      const std::string mer = read.substr(i, k + 1);
      if (mer.find('N') == std::string::npos) ++counts[Canonical(mer)];
    }
  }
  struct Edge {
    std::string to;
    int to_end;  // 0 = 5' end, 1 = 3' end of the canonical k-mer
  };
  std::map<std::string, std::array<std::vector<Edge>, 2>> ends;
  // The end of Canonical(x) that x's 3' side (out = true) or 5' side is.
  auto end_of = [](const std::string& x, bool out) {
    return (x == Canonical(x)) == out ? 1 : 0;
  };
  for (const auto& [mer, count] : counts) {
    if (count < theta) continue;
    const std::string u = mer.substr(0, k), v = mer.substr(1);
    const int u_end = end_of(u, true), v_end = end_of(v, false);
    ends[Canonical(u)][u_end].push_back({Canonical(v), v_end});
    ends[Canonical(v)][v_end].push_back({Canonical(u), u_end});
  }
  auto ambiguous = [&](const std::string& x) {
    for (const std::vector<Edge>& at : ends.at(x)) {
      if (at.size() > 1) return true;
      for (const Edge& e : at) {
        if (e.to == x) return true;
      }
    }
    return false;
  };
  // The edge across x's `end` into an unambiguous vertex, or null.
  auto step = [&](const std::string& x, int end) -> const Edge* {
    const std::vector<Edge>& at = ends.at(x)[end];
    return at.empty() || ambiguous(at[0].to) ? nullptr : &at[0];
  };

  std::vector<std::string> contigs;
  std::set<std::string> visited;
  for (const auto& [x, unused] : ends) {
    if (ambiguous(x) || visited.count(x) != 0) continue;
    // Walk out of x's 5' end to the path's first vertex, entered at
    // `entry`; coming back to x means x lies on a cycle.
    std::string first = x;
    int entry = 1;
    bool circular = false;
    for (const Edge* e = step(x, 0); e != nullptr;
         e = step(first, 1 - entry)) {
      if (e->to == x) {
        circular = true;
        break;
      }
      first = e->to;
      entry = e->to_end;
    }
    if (circular) {
      first = x;
      entry = 0;
    } else {
      entry = 1 - entry;
    }
    std::string seq = entry == 0 ? first : RevComp(first);
    std::string cur = first;
    int cur_entry = entry;
    visited.insert(first);
    for (const Edge* e = step(cur, 1 - cur_entry);
         e != nullptr && e->to != first; e = step(cur, 1 - cur_entry)) {
      cur = e->to;
      cur_entry = e->to_end;
      visited.insert(cur);
      seq += (cur_entry == 0 ? cur : RevComp(cur)).substr(k - 1);
    }
    const bool dead_end = ends.at(first)[entry].empty() ||
                          ends.at(cur)[1 - cur_entry].empty();
    if (!circular && dead_end && seq.size() <= tip_threshold) continue;
    contigs.push_back(ContigKey(seq, circular, k));
  }
  std::sort(contigs.begin(), contigs.end());
  return contigs;
}

/// 80-base reads from a random 3 kbp genome with two repeat families (one
/// copy inverted) and a reverse-complement palindrome at 12x, or from a
/// repeat-free 1.5 kbp circular genome at 30x. Reads come from both
/// strands, with substitution errors at `error` and an occasional N-run.
std::vector<std::string> OracleReads(uint64_t seed, double error,
                                     bool circular) {
  const std::string kBases = "ACGT";
  Rng rng(seed);
  auto random_seq = [&](size_t n) {
    std::string s(n, 'A');
    for (char& c : s) c = kBases[rng.Below(4)];
    return s;
  };
  std::string genome = random_seq(circular ? 1500 : 3000);
  if (!circular) {
    for (size_t family = 0; family < 2; ++family) {
      const std::string repeat = random_seq(40 + 60 * family);
      for (int copy = 0; copy < 3; ++copy) {
        genome.replace(rng.Below(genome.size() - repeat.size()),
                       repeat.size(), copy == 2 ? RevComp(repeat) : repeat);
      }
    }
    const std::string half = random_seq(16);
    genome.replace(rng.Below(genome.size() - 32), 32, half + RevComp(half));
  }
  const std::string source =
      circular ? genome + genome.substr(0, 100) : genome;
  std::vector<std::string> reads;
  for (size_t i = 0; i < genome.size() * (circular ? 30 : 12) / 80; ++i) {
    std::string read = source.substr(
        rng.Below(circular ? genome.size() : genome.size() - 80 + 1), 80);
    if (rng.Bernoulli(0.5)) read = RevComp(read);
    for (char& c : read) {
      if (rng.Bernoulli(error)) {
        c = kBases[(kBases.find(c) + 1 + rng.Below(3)) % 4];
      }
    }
    if (rng.Bernoulli(0.05)) {
      const size_t n = 1 + rng.Below(3);
      read.replace(rng.Below(80 - n), n, n, 'N');
    }
    reads.push_back(read);
  }
  return reads;
}

TEST(UnitigOracleTest, RoundOneContigsEqualReferenceUnitigs) {
  struct Case {
    int k;
    uint32_t theta;
    double error;
    uint64_t seed;
    bool circular;
  };
  std::vector<Case> cases;
  for (int k : {5, 11, 21, 31}) {
    for (uint32_t theta : {1u, 2u, 3u}) {
      for (double error : {0.0, 0.005, 0.02}) {
        for (uint64_t seed : {1u, 2u}) {
          cases.push_back({k, theta, error, seed, false});
        }
      }
    }
  }
  // k >= 15 keeps chance k-mer repeats out of the 1.5 kbp circle, so each
  // circular case yields one circular contig per method.
  for (int k : {15, 21, 31}) {
    for (uint64_t seed : {1u, 2u}) cases.push_back({k, 1, 0.0, seed, true});
  }

  size_t total_contigs = 0;
  size_t circular_contigs = 0;
  for (const Case& c : cases) {
    AssemblerOptions options;
    options.k = c.k;
    options.coverage_threshold = c.theta;
    options.tip_length_threshold = 2 * c.k;
    options.num_workers = 4;
    options.num_threads = 2;
    const std::vector<std::string> read_strs =
        OracleReads(c.seed * 1000 + c.k, c.error, c.circular);
    std::vector<Read> reads;
    for (const std::string& s : read_strs) reads.push_back(Read{"r", s, ""});
    const std::vector<std::string> expected = ReferenceContigs(
        read_strs, c.k, c.theta, options.tip_length_threshold);
    const AssemblyGraph dbg = BuildDbg(reads, options).graph;

    for (LabelingMethod method :
         {LabelingMethod::kListRanking, LabelingMethod::kSimplifiedSv}) {
      AssemblyGraph graph = dbg;
      std::vector<uint32_t> ordinals(options.num_workers, 0);
      MergeContigs(graph, LabelContigs(graph, options, method), options,
                   &ordinals);
      std::vector<std::string> got;
      for (const ContigRecord& contig : CollectContigs(graph)) {
        got.push_back(ContigKey(contig.seq.ToString(), contig.circular, c.k));
        circular_contigs += contig.circular ? 1 : 0;
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << LabelingMethodName(method) << " k=" << c.k << " theta=" << c.theta
          << " error=" << c.error << " seed=" << c.seed
          << (c.circular ? " circular" : "");
      total_contigs += got.size();
    }
  }
  // The grid must exercise both contig shapes.
  EXPECT_GT(total_contigs, 10000u);
  EXPECT_EQ(circular_contigs, 12u);
}

}  // namespace
}  // namespace ppa
