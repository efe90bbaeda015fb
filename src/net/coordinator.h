// Coordinator side of distributed execution: per-worker framed clients
// with windowed flow control, and the NetContext that owns the fleet
// (spawning local worker processes or connecting to given endpoints).
//
// Flow control: the one data-plane message, kCounterChunk, is
// acknowledged by the worker in order. WorkerClient admits a send only
// while the unacknowledged bytes stay under a per-worker window, so a slow
// worker backpressures its producers the same way MemoryBudget does — and
// the caller's completion callback runs when the ack arrives, which is how
// the counter session's queued-byte bound extends over the wire.
//
// Failure model: any transport error (connect/read/write timeout, CRC or
// framing violation, a worker dying mid-stream) fails the client once,
// permanently. Failing drains every pending completion callback, wakes
// every blocked sender, and makes all further operations cheap no-ops that
// return false, so producer threads never hang on a dead worker; the
// owner reads error() and raises one diagnostic.
#ifndef PPA_NET_COORDINATOR_H_
#define PPA_NET_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "net/faultinject.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppa {
namespace net {

/// One connected worker. Thread-safe: scanner threads SendData
/// concurrently; a dedicated receive thread dispatches acks/errors and
/// queues everything else for NextResponse/Exchange.
class WorkerClient {
 public:
  struct Options {
    std::string endpoint;                  // spec, see wire.h
    uint64_t window_bytes = 8ULL << 20;    // unacked in-flight byte cap
    int io_timeout_ms = 30000;             // per read/write; 0 = none
    int connect_timeout_ms = 10000;        // total, across retries
    // Set kHelloFlagTrace in the hello so the worker arms its span
    // collection.
    bool arm_trace = false;
  };

  /// Connects (with bounded retry) and handshakes; throws
  /// std::runtime_error with the endpoint in the diagnostic on failure.
  explicit WorkerClient(const Options& options);
  ~WorkerClient();

  WorkerClient(const WorkerClient&) = delete;
  WorkerClient& operator=(const WorkerClient&) = delete;

  const std::string& endpoint() const { return options_.endpoint; }
  bool failed() const;
  std::string error() const;

  /// Sends an acknowledged data frame. Blocks while the window is full;
  /// `done` runs exactly once — when the worker's ack arrives, or
  /// immediately on failure — so callers can hang resource accounting on
  /// it. False (after running done) if the client has failed.
  bool SendData(MsgType type, std::vector<uint8_t> body,
                std::function<void()> done);

  /// Sends an unacknowledged frame. False if the client has failed.
  bool SendControl(MsgType type, const std::vector<uint8_t>& body);

  /// Blocks for the next non-ack frame from the worker. False (see
  /// error()) once the client has failed.
  bool NextResponse(Frame* frame);

  /// One serialized request/response exchange: sends `type`+`body`, then
  /// feeds every response frame to `visit` until one of type `end` (which
  /// is also visited). `visit` returns false to reject a frame, which
  /// fails the client. Exchanges from different threads are serialized
  /// internally, so one request's responses never interleave with
  /// another's.
  bool Exchange(MsgType type, const std::vector<uint8_t>& body, MsgType end,
                const std::function<bool(const Frame&)>& visit);

  /// Liveness probe (fire and forget; the worker's kHeartbeatOk, like any
  /// frame it sends, refreshes millis_since_last_frame). Only idle links
  /// are probed — when unacked data is in flight the expected acks refresh
  /// the liveness clock, and skipping keeps the (single) liveness thread
  /// from ever blocking on one stalled worker's full socket buffer, which
  /// would starve heartbeats to the healthy ones.
  void SendHeartbeat();

  /// Milliseconds since the last frame this client received (handshake
  /// completion counts as frame zero).
  uint64_t millis_since_last_frame() const;

  /// Marks the client dead from outside the transport — the liveness
  /// thread calls this on a heartbeat deadline breach. Same semantics as
  /// an internal failure: pending callbacks drain, blocked senders wake,
  /// and the recovery layer picks the carcass up at its next touch point.
  void FailForRecovery(const std::string& what) { Fail(what); }

  /// Estimates the worker's clock offset (worker MonotonicMicros minus
  /// ours) with `probes` ping exchanges, keeping the midpoint of the
  /// minimum-RTT sample — the sample whose midpoint assumption is best.
  /// Updates clock_offset_us(); false (offset unchanged) on a failed
  /// link. Run at handshake and again at trace collection.
  bool ProbeClockOffset(int probes = 5);

  /// The latest ProbeClockOffset estimate, microseconds.
  int64_t clock_offset_us() const {
    return clock_offset_us_.load(std::memory_order_relaxed);
  }

 private:
  void ReceiveLoop();
  void Fail(const std::string& what);

  struct Pending {
    uint64_t bytes = 0;
    std::function<void()> done;
  };

  Options options_;
  std::unique_ptr<FrameConn> conn_;
  std::thread receiver_;
  std::atomic<int64_t> clock_offset_us_{0};
  // Steady-clock millis of the last received frame, for the liveness
  // deadline. Atomic: written by the receive thread, read by the liveness
  // thread.
  std::atomic<uint64_t> last_frame_ms_{0};

  // mu_ guards the window ledger, the ack FIFO, the response inbox, and
  // the failure state. NEVER held across a socket write: the worker acks
  // over the same socket it reads, so a blocked write with mu_ held would
  // deadlock the receive thread against it.
  mutable std::mutex mu_;
  std::condition_variable window_cv_;  // senders wait for window space
  std::condition_variable inbox_cv_;   // NextResponse waits here
  std::deque<Pending> unacked_;        // FIFO, in socket write order
  uint64_t window_used_ = 0;
  // Live window occupancy, published as net.worker.<endpoint>.unacked_bytes
  // so a heartbeat can show which worker a stalled send is waiting on.
  obs::Gauge* unacked_gauge_ = nullptr;
  std::deque<Frame> inbox_;
  bool failed_ = false;
  std::string error_;

  // Serializes socket writes AND the unacked_ pushes that precede them,
  // so the FIFO order always matches the wire order the worker acks in.
  std::mutex send_mu_;
  // Serializes whole Exchange round trips.
  std::mutex request_mu_;
};

}  // namespace net

/// How to reach (or create) the worker fleet.
struct NetConfig {
  // Spawn this many local ppa_shard_worker processes on unix-domain
  // sockets in a private temp dir. Ignored when `endpoints` is set.
  uint32_t spawn_workers = 0;
  // Comma-separated endpoint specs of already-running workers.
  std::string endpoints;
  // Worker binary to spawn; empty = ppa_shard_worker next to this binary.
  std::string worker_binary;

  uint64_t window_bytes = 8ULL << 20;  // per-worker unacked byte cap
  int io_timeout_ms = 30000;
  int connect_timeout_ms = 10000;

  // Fault-injection script (net/faultinject.h grammar) forwarded to every
  // spawned worker, scoped per worker via FaultPlan::ForWorker. Ignored
  // for already-running endpoint workers (pass --fault-plan to those
  // processes directly).
  std::string fault_plan;

  // Ask every worker to arm span tracing at handshake, so
  // CollectTraces has rings to pull. Set when the coordinator itself is
  // tracing (--trace-out).
  bool arm_trace = false;
};

/// The connected fleet. Owns the clients and any processes it spawned; the
/// destructor shuts the workers down (kShutdown + connection close), reaps
/// spawned processes (SIGKILL after a grace period), and removes the
/// socket dir.
class NetContext {
 public:
  ~NetContext();

  NetContext(const NetContext&) = delete;
  NetContext& operator=(const NetContext&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(clients_.size());
  }
  net::WorkerClient& client(uint32_t w) { return *clients_[w]; }

  /// First recorded failure across the fleet; "" while healthy.
  std::string error() const;
  /// Human-readable fleet summary for reports.
  const std::string& description() const { return description_; }

  /// Pulls every worker's metrics registry over the wire
  /// (kMetricsRequest -> kMetricsSnapshot). Workers that have failed, or
  /// whose snapshot does not decode, are skipped — telemetry is best
  /// effort and never fails a run. Call after all data-plane traffic is
  /// done so the numbers are final.
  std::vector<obs::TelemetrySnapshot> CollectMetrics();

  /// Pulls every worker's span rings (kTraceRequest -> kTraceSnapshot) for
  /// the merged timeline, re-probing each link's clock offset first. Same
  /// best-effort contract as CollectMetrics; failed links are skipped, and
  /// the whole pull is a no-op unless this process is tracing.
  std::vector<obs::ProcessTrace> CollectTraces();

 private:
  friend std::unique_ptr<NetContext> MakeNetContext(const NetConfig& config);
  NetContext() = default;

  void StartLiveness(int io_timeout_ms);
  void StopLiveness();

  std::vector<std::unique_ptr<net::WorkerClient>> clients_;
  std::vector<pid_t> spawned_;
  std::string spawn_dir_;  // owned socket dir; "" when connecting out
  std::string description_;

  // Liveness thread: heartbeats every idle client (SendHeartbeat skips
  // links with data in flight) and fails any whose last frame is older
  // than the io timeout, so a stalled (not just dead) worker is detected
  // even while no data-plane traffic is due.
  std::thread liveness_;
  std::mutex liveness_mu_;
  std::condition_variable liveness_cv_;
  bool liveness_stop_ = false;
};

/// Spawns/connects the fleet per `config`. Throws std::runtime_error when
/// a worker cannot be spawned or reached (already-spawned processes are
/// cleaned up). Returns nullptr when the config asks for no workers.
std::unique_ptr<NetContext> MakeNetContext(const NetConfig& config);

}  // namespace ppa

#endif  // PPA_NET_COORDINATOR_H_
