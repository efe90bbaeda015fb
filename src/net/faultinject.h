// Deterministic fault injection for the distributed counter.
//
// A FaultPlan is a comma-separated script of failures a worker should act
// out, each scoped to a deterministic trigger point, so the recovery paths
// of the coordinator (net/coordinator.h, dbg/kmer_counter.cpp) can be
// exercised reproducibly — in tests, in CI's fault-smoke job, and from the
// command line of both `ppa_assemble` (which forwards the plan to the
// workers it spawns) and `ppa_shard_worker`.
//
// Grammar (whitespace-free):
//
//   plan  := entry (',' entry)*
//   entry := 'seed=' N | action ('@' key '=' N)*
//   action:= 'drop-conn' | 'delay' | 'corrupt-frame' | 'stall-worker'
//            | 'kill-worker'
//   key   := 'frame' | 'chunk' | 'ms' | 'worker'
//
//   drop-conn      close the connection abruptly (no error frame, no ack)
//   delay          sleep `ms` (default 100) before handling the frame
//   corrupt-frame  flip the CRC of the next frame this worker sends
//   stall-worker   stop reading/responding for `ms` (default 600000) —
//                  long enough that the coordinator's heartbeat deadline
//                  fires first
//   kill-worker    _exit(137), the moral equivalent of kill -9 (only
//                  honored by the ppa_shard_worker process, never by
//                  in-process test servers)
//
// Triggers: `chunk=J` fires when the Jth kCounterChunk frame (1-based)
// arrives on a connection; `frame=K` fires on the Kth post-handshake frame
// of any type. An entry with neither picks a frame in [1, 8] from the
// plan's seeded RNG — deterministic per (seed, entry index), different
// across seeds. `worker=K` scopes an entry to spawned worker K when the
// coordinator fans a plan out to its fleet (FaultPlan::ForWorker); entries
// without it apply to every worker. Each entry fires at most once per
// connection.
#ifndef PPA_NET_FAULTINJECT_H_
#define PPA_NET_FAULTINJECT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppa {
namespace net {

class FrameConn;

enum class FaultKind : uint8_t {
  kDropConn = 0,
  kDelay = 1,
  kCorruptFrame = 2,
  kStallWorker = 3,
  kKillWorker = 4,
};

const char* FaultKindName(FaultKind kind);

struct FaultRule {
  FaultKind kind = FaultKind::kDropConn;
  uint64_t frame = 0;   // 1-based post-handshake frame trigger; 0 = seeded
  uint64_t chunk = 0;   // 1-based kCounterChunk trigger; 0 = frame trigger
  uint64_t ms = 0;      // delay/stall duration; 0 = the action's default
  int32_t worker = -1;  // spawned-worker scope; -1 = every worker
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Parses the grammar above. False with a diagnostic naming the bad
  /// entry on malformed input; an empty string parses to an empty plan.
  static bool Parse(const std::string& text, FaultPlan* plan,
                    std::string* error);

  /// Re-serializes to the grammar (for forwarding over argv). Parse of
  /// the result yields an equal plan.
  std::string ToString() const;

  /// The sub-plan spawned worker `worker` should run: rules scoped to it
  /// (with the scope stripped) plus every unscoped rule.
  FaultPlan ForWorker(uint32_t worker) const;
};

/// Evaluates one connection's triggers. The worker calls OnFrame once per
/// post-handshake frame, before dispatching it; delay/stall rules sleep in
/// place, corrupt-frame arms `conn`'s CRC-corruption hook for the next
/// send, and the two terminal actions are returned for the caller to act
/// on (drop the connection, or — worker binary only — die).
class FaultInjector {
 public:
  enum class Fired : uint8_t { kNone = 0, kDropConn = 1, kKillWorker = 2 };

  explicit FaultInjector(const FaultPlan& plan);

  Fired OnFrame(bool is_chunk, FrameConn* conn);

 private:
  struct Armed {
    FaultRule rule;
    uint64_t at_frame = 0;  // resolved frame trigger (0 = chunk-triggered)
    bool fired = false;
  };

  std::vector<Armed> armed_;
  uint64_t frames_ = 0;
  uint64_t chunks_ = 0;
};

}  // namespace net
}  // namespace ppa

#endif  // PPA_NET_FAULTINJECT_H_
