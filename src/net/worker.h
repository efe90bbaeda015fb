// Shard worker server: the remote end of distributed execution.
//
// A worker serves the counter service over one framed connection (wire.h):
// it owns the pass-2 count tables for every shard whose chunks the
// coordinator routes to it (dbg/kmer_counter.h's ShardCounterBank, one per
// connection). Its counterpart, the coordinator half of the kCounter*
// messages, is net/fleet_counter.h. Each chunk is acknowledged in arrival
// order, which is what the coordinator's flow-control window is built on.
// Telemetry, trace and liveness requests are answered on the same
// connection.
//
// Malformed input (bad frame, bad payload, a chunk whose decoded windows
// contradict its header) is answered with a kError frame carrying the
// diagnostic, then the connection is dropped — a worker never counts bytes
// it could not fully validate. The server is embeddable (tests run it
// in-process on a unix socket) and is what the ppa_shard_worker binary
// wraps.
#ifndef PPA_NET_WORKER_H_
#define PPA_NET_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/faultinject.h"
#include "obs/metrics.h"

namespace ppa {
namespace net {

class FrameConn;

struct WorkerOptions {
  std::string listen;      // endpoint spec (wire.h); port 0 picks a free port
  bool once = false;       // exit Wait() after the first connection ends
  int io_timeout_ms = 0;   // per read/write on accepted connections; 0 = none
  // Deterministic fault script (faultinject.h grammar), evaluated per
  // connection. drop-conn@frame=N+1 simulates a worker crash after N
  // post-handshake frames.
  FaultPlan fault_plan;
  // Honor kill-worker rules with _exit(137). Only the ppa_shard_worker
  // binary sets this; embedded test servers treat kill-worker as
  // drop-conn so a test fleet never takes its process down.
  bool allow_process_exit = false;
  // Test hook: added to every kClockProbeOk timestamp and to the span
  // timestamps in kTraceSnapshot bodies, simulating a worker whose
  // monotonic clock is skewed against the coordinator's. Applied to both
  // so an injected skew stays self-consistent: the coordinator's offset
  // estimate should cancel it out of the merged trace.
  int64_t clock_skew_us = 0;
};

class ShardWorkerServer {
 public:
  explicit ShardWorkerServer(WorkerOptions options);
  ~ShardWorkerServer();

  ShardWorkerServer(const ShardWorkerServer&) = delete;
  ShardWorkerServer& operator=(const ShardWorkerServer&) = delete;

  /// Binds + starts the accept loop. False with a diagnostic on failure.
  bool Start(std::string* error);

  /// The resolved listen spec — differs from options.listen when a TCP
  /// port 0 was bound (the actual port is filled in). Valid after Start.
  const std::string& listen_spec() const { return listen_spec_; }

  /// Blocks until Stop() — or, with options.once, until the first accepted
  /// connection has been served.
  void Wait();

  /// Closes the listener and joins every thread. Idempotent.
  void Stop();

  /// Graceful shutdown (the binary's SIGTERM/SIGINT path): stop accepting,
  /// close every active connection — the frame being processed completes,
  /// the next read sees the shutdown and ends the connection normally —
  /// and make Wait() return once the last connection drains. Idempotent.
  void BeginDrain();

  uint64_t connections() const;

  /// This server's telemetry (frames served, bytes, CRC rejects, ...),
  /// accumulated across connections for the process lifetime. The
  /// coordinator pulls it over the wire with kMetricsRequest; tests can
  /// read it directly. Each server owns a private registry so in-process
  /// fleets stay isolated per worker.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  obs::MetricsRegistry metrics_;
  WorkerOptions options_;
  std::string listen_spec_;
  int listen_fd_ = -1;
  std::string socket_path_;  // unlinked on Stop (unix endpoints)

  std::thread acceptor_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<std::thread> conns_;
  std::vector<FrameConn*> active_conns_;  // live connections, for BeginDrain
  uint64_t active_ = 0;
  uint64_t served_ = 0;
  bool stopping_ = false;
  bool draining_ = false;
  bool done_ = false;
};

}  // namespace net
}  // namespace ppa

#endif  // PPA_NET_WORKER_H_
