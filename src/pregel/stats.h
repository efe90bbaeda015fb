// Per-superstep execution statistics.
//
// Tables II and III of the paper report (#supersteps, #messages, runtime)
// for the two contig-labeling algorithms; Fig. 12 derives cluster wall-clock
// from per-worker communication and computation volumes. The engine records
// everything needed for both here: per superstep and per logical worker,
// the number of compute invocations, messages and message bytes.
//
// Spill volume travels as one SpillStats record. It is counted and checked
// in one place, the SpillManager ledger (spill/spill.h): Append counts each
// file's records and bytes, and Replay refuses a file whose record count
// differs from the appended one. RunStats holds one SpillStats, filled from
// SpillManager::Stats over the job's own files.
#ifndef PPA_PREGEL_STATS_H_
#define PPA_PREGEL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppa {

/// External spill volume of one shuffle job: sealed chunks written to its
/// spill files and read back by the consuming pass.
/// Bytes are serialized record payloads, so readback equal to spilled
/// means every spilled chunk was replayed. All zero when the run has no
/// memory budget, which is when nothing spills.
struct SpillStats {
  uint64_t spilled_chunks = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;  // files holding at least one record
  uint64_t readback_chunks = 0;
  uint64_t readback_bytes = 0;

  SpillStats& operator+=(const SpillStats& o) {
    spilled_chunks += o.spilled_chunks;
    spilled_bytes += o.spilled_bytes;
    spill_files += o.spill_files;
    readback_chunks += o.readback_chunks;
    readback_bytes += o.readback_bytes;
    return *this;
  }
};

/// Statistics of one superstep, with per-logical-worker breakdowns.
struct SuperstepStats {
  uint32_t superstep = 0;
  uint64_t active_vertices = 0;
  uint64_t messages_sent = 0;
  uint64_t message_bytes = 0;
  uint64_t compute_ops = 0;  // compute calls + messages processed + sent.
  // Index = logical worker id; sized num_workers.
  std::vector<uint64_t> worker_messages;
  std::vector<uint64_t> worker_bytes;
  std::vector<uint64_t> worker_ops;
};

/// Statistics of one Pregel job (or one MapReduce job, which is modeled as
/// a map superstep + a reduce superstep).
struct RunStats {
  std::string job_name;
  std::vector<SuperstepStats> supersteps;
  double wall_seconds = 0;
  // Pregel jobs only: wall time of the supersteps' compute and delivery
  // phases (steady clock); the rest of wall_seconds is set-up and barriers.
  double compute_seconds = 0;
  double delivery_seconds = 0;

  // MapReduce jobs only: pairs the map side emitted, every one of which
  // crosses the shuffle (equals the map superstep's messages_sent).
  uint64_t pairs_shuffled = 0;

  // Spill volume of the job's per-destination spill files.
  SpillStats spill;

  uint32_t num_supersteps() const {
    return static_cast<uint32_t>(supersteps.size());
  }

  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const auto& s : supersteps) n += s.messages_sent;
    return n;
  }

  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& s : supersteps) n += s.message_bytes;
    return n;
  }
};

/// Accumulated statistics across the jobs of a whole workflow run.
struct PipelineStats {
  std::vector<RunStats> jobs;

  void Add(RunStats stats) { jobs.push_back(std::move(stats)); }

  double total_wall_seconds() const {
    double t = 0;
    for (const auto& j : jobs) t += j.wall_seconds;
    return t;
  }

  double total_compute_seconds() const {
    double t = 0;
    for (const auto& j : jobs) t += j.compute_seconds;
    return t;
  }

  double total_delivery_seconds() const {
    double t = 0;
    for (const auto& j : jobs) t += j.delivery_seconds;
    return t;
  }

  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.total_messages();
    return n;
  }

  /// Shuffled payload across all jobs — phase (i) reports its measured
  /// pass-1 chunk bytes here, so encoding choices show up pipeline-wide.
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.total_bytes();
    return n;
  }

  uint32_t total_supersteps() const {
    uint32_t n = 0;
    for (const auto& j : jobs) n += j.num_supersteps();
    return n;
  }

  uint64_t total_pairs_shuffled() const {
    uint64_t n = 0;
    for (const auto& j : jobs) n += j.pairs_shuffled;
    return n;
  }

  // Spill volume across all shuffle jobs, so the CLI report can show one
  // line.
  SpillStats total_spill() const {
    SpillStats total;
    for (const auto& j : jobs) total += j.spill;
    return total;
  }

  /// Finds accumulated stats of all jobs whose name contains `substr`.
  RunStats Aggregate(const std::string& substr) const {
    RunStats out;
    out.job_name = substr;
    for (const auto& j : jobs) {
      if (j.job_name.find(substr) == std::string::npos) continue;
      out.wall_seconds += j.wall_seconds;
      out.compute_seconds += j.compute_seconds;
      out.delivery_seconds += j.delivery_seconds;
      out.pairs_shuffled += j.pairs_shuffled;
      out.spill += j.spill;
      out.supersteps.insert(out.supersteps.end(), j.supersteps.begin(),
                            j.supersteps.end());
    }
    return out;
  }
};

}  // namespace ppa

#endif  // PPA_PREGEL_STATS_H_
