#include "net/worker.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "dbg/kmer_counter.h"
#include "net/wire.h"
#include "obs/expose.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "util/varint.h"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace ppa {
namespace net {

namespace {

// Pairs per kCounterResult frame: 8192 x 12 bytes keeps result frames
// under 100 KB, far below the frame cap, while amortizing framing.
constexpr uint64_t kResultSlicePairs = 8192;

bool GetV(const std::vector<uint8_t>& body, size_t* pos, uint64_t* value) {
  return GetVarint64(body.data(), body.size(), pos, value);
}

/// Everything one connection accumulates: the counter bank (after
/// kCounterOpen) and which of its shards were already reported.
struct ConnState {
  std::unique_ptr<ShardCounterBank> bank;
  uint32_t out_workers = 1;
  uint32_t coverage_threshold = 1;
  // Shards already streamed by an earlier kCounterFinish on this
  // connection. The coordinator's recovery loop finishes in rounds (late
  // chunk replays can land between finishes), so repeating the finish must
  // be idempotent: a shard's results go out exactly once.
  std::vector<bool> reported;
};

/// Sends the kError diagnostic; the caller then drops the connection.
void SendError(FrameConn& conn, const std::string& why) {
  std::string ignored;
  conn.Send(MsgType::kError, reinterpret_cast<const uint8_t*>(why.data()),
            why.size(), &ignored);
}

bool SendAck(FrameConn& conn, size_t body_bytes, std::string* error) {
  std::vector<uint8_t> ack;
  PutVarint64(&ack, body_bytes);
  return conn.Send(MsgType::kAck, ack, error);
}

/// Finalizes the bank and streams every not-yet-reported non-empty
/// (shard, partition) survivor slice, per-shard summaries, and the
/// kCounterDone trailer (whose count covers this round only).
bool SendCounterResults(FrameConn& conn, ConnState& state,
                        std::string* error) {
  uint64_t shards_reported = 0;
  const uint32_t num_shards =
      state.bank == nullptr ? 0 : state.bank->num_shards();
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (state.bank->chunks(s) == 0 || state.reported[s]) continue;
    state.reported[s] = true;
    ++shards_reported;
    const auto partitions = state.bank->Finalize(s, state.coverage_threshold,
                                                 state.out_workers);
    for (uint32_t d = 0; d < partitions.size(); ++d) {
      const auto& pairs = partitions[d];
      for (size_t begin = 0; begin < pairs.size();
           begin += kResultSlicePairs) {
        const size_t end =
            std::min(pairs.size(), begin + kResultSlicePairs);
        std::vector<uint8_t> body;
        body.reserve(16 + (end - begin) * 12);
        PutVarint64(&body, s);
        PutVarint64(&body, d);
        PutVarint64(&body, end - begin);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t code = pairs[i].first;
          const uint32_t count = pairs[i].second;
          for (int b = 0; b < 8; ++b) {
            body.push_back(static_cast<uint8_t>(code >> (8 * b)));
          }
          for (int b = 0; b < 4; ++b) {
            body.push_back(static_cast<uint8_t>(count >> (8 * b)));
          }
        }
        if (!conn.Send(MsgType::kCounterResult, body, error)) return false;
      }
    }
    std::vector<uint8_t> summary;
    PutVarint64(&summary, s);
    PutVarint64(&summary, state.bank->chunks(s));
    PutVarint64(&summary, state.bank->windows(s));
    PutVarint64(&summary, state.bank->distinct(s));
    if (!conn.Send(MsgType::kCounterShard, summary, error)) return false;
  }
  std::vector<uint8_t> done;
  PutVarint64(&done, shards_reported);
  return conn.Send(MsgType::kCounterDone, done, error);
}

/// Peeks (without consuming) the connection's first bytes to route it:
/// `GET ` means an HTTP metrics scrape, anything else — including the
/// PPANET01 magic — falls through to the frame handler, whose magic check
/// rejects junk with its usual diagnostic. MSG_PEEK leaves the bytes in
/// place for whichever path wins. Blocks until 4 bytes arrive, the peer
/// closes, or `budget_ms` elapses (a trickling or silent client then takes
/// the frame path and fails its magic read there).
bool SniffHttp(int fd, int budget_ms) {
  int waited_ms = 0;
  for (;;) {
    uint8_t peek[4];
    const ssize_t n = ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_DONTWAIT);
    if (n >= 4) return std::memcmp(peek, "GET ", 4) == 0;
    if (n == 0) return false;  // closed before any byte
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    if (waited_ms >= budget_ms) return false;
    // Fewer than 4 bytes buffered. Wait for more — or, when a prefix is
    // already here, only for the peer closing (POLLIN stays level-set on
    // the prefix, so polling it again would spin).
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>(n > 0 ? POLLRDHUP : (POLLIN | POLLRDHUP));
    const int pr = ::poll(&p, 1, 20);
    if (pr > 0 && (p.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0) {
      // Peer closed; one last peek settles whatever raced in.
      const ssize_t last =
          ::recv(fd, peek, sizeof(peek), MSG_PEEK | MSG_DONTWAIT);
      return last >= 4 && std::memcmp(peek, "GET ", 4) == 0;
    }
    waited_ms += 20;
  }
}

}  // namespace

ShardWorkerServer::ShardWorkerServer(WorkerOptions options)
    : options_(std::move(options)) {}

ShardWorkerServer::~ShardWorkerServer() { Stop(); }

bool ShardWorkerServer::Start(std::string* error) {
  Endpoint endpoint;
  if (!ParseEndpoint(options_.listen, &endpoint, error)) return false;
  listen_fd_ = ListenOn(endpoint, error);
  if (listen_fd_ < 0) return false;
  if (endpoint.is_unix) socket_path_ = endpoint.path;
  listen_spec_ = options_.listen;
  if (!endpoint.is_unix) {
    // A TCP port 0 bind picked a free port; resolve it so callers (tests,
    // the worker binary's log line) can hand out a connectable spec.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      listen_spec_ = endpoint.host + ":" + std::to_string(ntohs(bound.sin_port));
    }
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ShardWorkerServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return done_ || stopping_ || (draining_ && active_ == 0);
  });
}

void ShardWorkerServer::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
    // Wake the active connections: each one's in-flight frame finishes
    // processing, then its next socket read sees the shutdown and takes
    // the normal end-of-connection path.
    for (FrameConn* conn : active_conns_) conn->Close();
    done_cv_.notify_all();
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void ShardWorkerServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    done_cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    // shutdown() makes a blocked accept() return; the fd closes after the
    // acceptor is joined so it cannot be reused under it.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (std::thread& t : conns) t.join();
  if (!socket_path_.empty()) {
    ::unlink(socket_path_.c_str());
    socket_path_.clear();
  }
}

uint64_t ShardWorkerServer::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

void ShardWorkerServer::AcceptLoop() {
  for (;;) {
    std::string error;
    const int fd = AcceptOn(listen_fd_, &error);
    if (fd < 0) {
      if (error.empty()) return;  // listener closed: clean shutdown
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
      }
      continue;  // transient accept failure
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || draining_) {
      ::close(fd);
      if (stopping_) return;
      continue;
    }
    ++active_;
    conns_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void ShardWorkerServer::ServeConnection(int fd) {
  // Telemetry cells, looked up once per connection (stable pointers). The
  // coordinator's CI consistency check relies on two of these definitions:
  // frames_served counts accepted kCounterChunk frames (== the
  // coordinator's net_chunks across the fleet) and chunk_bytes their body
  // bytes (== the coordinator's net_sent_bytes).
  obs::Counter* m_connections = metrics_.GetCounter("worker.connections");
  obs::Counter* m_frames_total = metrics_.GetCounter("worker.frames_total");
  obs::Counter* m_frames_served = metrics_.GetCounter("worker.frames_served");
  obs::Counter* m_chunk_bytes = metrics_.GetCounter("worker.chunk_bytes");
  obs::Counter* m_bytes_received =
      metrics_.GetCounter("worker.bytes_received");
  obs::Counter* m_crc_rejects = metrics_.GetCounter("worker.crc_rejects");
  m_connections->Increment();
  {
    FrameConn conn(fd);
    conn.SetTimeouts(options_.io_timeout_ms);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) {
        // Drained between accept and here: take the end path immediately.
        conn.Close();
      }
      active_conns_.push_back(&conn);
    }
    std::string err;

    // Route the connection: a Prometheus scraper speaks HTTP on this same
    // listen socket; everything else is the framed protocol.
    if (SniffHttp(fd, options_.io_timeout_ms > 0 ? options_.io_timeout_ms
                                                 : 5000)) {
      obs::Counter* m_http = metrics_.GetCounter("worker.http_requests");
      obs::ServeHttpConnection(fd, [&] {
        // Counted before the snapshot, so a scrape sees itself.
        m_http->Increment();
        return obs::RenderPrometheus(metrics_.Snapshot());
      });
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < active_conns_.size(); ++i) {
        if (active_conns_[i] == &conn) {
          active_conns_.erase(active_conns_.begin() + i);
          break;
        }
      }
    } else {
    // Handshake: the coordinator speaks first; magic both ways. Coordinator
    // and worker ship together, so only kProtocolVersion is accepted; any
    // other offer gets one refusal naming both versions.
    bool ok = conn.ExpectMagic(&err);
    Frame frame;
    if (ok && conn.Recv(&frame, &err) != FrameConn::RecvResult::kOk) ok = false;
    if (ok && conn.SendMagic(&err)) {
      size_t pos = 0;
      uint64_t version = 0;
      uint64_t flags = 0;
      if (frame.type != MsgType::kHello ||
          !GetV(frame.body, &pos, &version)) {
        SendError(conn, "handshake: expected a hello frame");
        ok = false;
      } else if (version != kProtocolVersion) {
        SendError(conn, "protocol version " + std::to_string(version) +
                            " != " + std::to_string(kProtocolVersion));
        ok = false;
      } else if (pos < frame.body.size() && !GetV(frame.body, &pos, &flags)) {
        SendError(conn, "handshake: malformed hello flags");
        ok = false;
      } else {
        if ((flags & kHelloFlagTrace) != 0 && !obs::TraceEnabled()) {
          // Arm span collection for the coordinator's trace pull. The
          // guard keeps an embedded (in-process) server from resetting
          // a trace session its host already started.
          obs::StartTrace();
        }
        std::vector<uint8_t> hello_ok;
        PutVarint64(&hello_ok, kProtocolVersion);
        ok = conn.Send(MsgType::kHelloOk, hello_ok, &err);
      }
    }
    obs::SetTraceThreadName("worker-conn");

    FaultInjector injector(options_.fault_plan);

    ConnState state;
    uint64_t crc_folded = 0;  // rejects already added to the registry
    while (ok) {
      const FrameConn::RecvResult r = conn.Recv(&frame, &err);
      if (r == FrameConn::RecvResult::kEof) break;  // coordinator is done
      if (r == FrameConn::RecvResult::kError) {
        SendError(conn, err);
        break;
      }
      if (frame.type == MsgType::kHeartbeat) {
        // Liveness probes answer immediately and stay out of the fault
        // injector's frame count (their timing is wall-clock dependent,
        // and frame triggers must stay deterministic) and out of the
        // telemetry the CI consistency check reconciles.
        ok = conn.Send(MsgType::kHeartbeatOk, std::vector<uint8_t>{}, &err);
        continue;
      }
      if (frame.type == MsgType::kClockProbe ||
          frame.type == MsgType::kTraceRequest) {
        // Trace-plane frames, answered like heartbeats — before the fault
        // injector and outside the reconciled counters — so arming tracing
        // never shifts a fault plan's frame numbering.
        if (frame.type == MsgType::kClockProbe) {
          std::vector<uint8_t> now;
          PutVarint64(&now, ZigZagEncode(static_cast<int64_t>(
                                             MonotonicMicros()) +
                                         options_.clock_skew_us));
          ok = conn.Send(MsgType::kClockProbeOk, now, &err);
        } else {
          std::vector<uint8_t> snapshot;
          obs::EncodeTraceSnapshot(&snapshot, options_.clock_skew_us);
          ok = conn.Send(MsgType::kTraceSnapshot, snapshot, &err);
        }
        continue;
      }
      const FaultInjector::Fired fired =
          injector.OnFrame(frame.type == MsgType::kCounterChunk, &conn);
      if (fired == FaultInjector::Fired::kKillWorker &&
          options_.allow_process_exit) {
        _exit(137);  // the worker-binary stand-in for kill -9
      }
      if (fired != FaultInjector::Fired::kNone) {
        break;  // drop abruptly: no error frame, no ack
      }
      const std::vector<uint8_t>& body = frame.body;
      m_frames_total->Increment();
      m_bytes_received->Add(body.size());
      size_t pos = 0;
      switch (frame.type) {
        case MsgType::kCounterOpen: {
          uint64_t mer_length = 0, shards = 0, workers = 0, coverage = 0;
          if (!GetV(body, &pos, &mer_length) || !GetV(body, &pos, &shards) ||
              !GetV(body, &pos, &workers) || !GetV(body, &pos, &coverage) ||
              mer_length < 1 || mer_length > 32 || shards < 1 ||
              shards > 1024 || workers < 1) {
            SendError(conn, "malformed counter-open");
            ok = false;
            break;
          }
          state.bank = std::make_unique<ShardCounterBank>(
              static_cast<int>(mer_length), static_cast<uint32_t>(shards));
          state.reported.assign(shards, false);
          state.out_workers = static_cast<uint32_t>(workers);
          state.coverage_threshold = static_cast<uint32_t>(coverage);
          break;
        }
        case MsgType::kCounterChunk: {
          PPA_TRACE_SPAN_V("worker.chunk_ingest", "worker", body.size());
          uint64_t shard = 0;
          std::string why;
          if (state.bank == nullptr) {
            why = "counter-chunk before counter-open";
          } else if (!GetV(body, &pos, &shard)) {
            why = "malformed counter-chunk header";
          } else if (!state.bank->AddChunkPayload(
                         static_cast<uint32_t>(shard), body.data() + pos,
                         body.size() - pos, &why)) {
            // why already set
          }
          if (!why.empty()) {
            SendError(conn, why);
            ok = false;
            break;
          }
          m_frames_served->Increment();
          m_chunk_bytes->Add(body.size());
          ok = SendAck(conn, body.size(), &err);
          break;
        }
        case MsgType::kCounterFinish: {
          PPA_TRACE_SPAN("worker.count_finalize", "worker");
          ok = SendCounterResults(conn, state, &err);
          break;
        }
        case MsgType::kMetricsRequest: {
          // Fold rejects seen so far on this connection in before
          // snapshotting, so the pull reflects this very connection too.
          if (conn.crc_rejects() != 0) {
            m_crc_rejects->Add(conn.crc_rejects());
            crc_folded = conn.crc_rejects();
          }
          std::vector<uint8_t> snapshot;
          obs::EncodeTelemetry(metrics_.Snapshot(), &snapshot);
          ok = conn.Send(MsgType::kMetricsSnapshot, snapshot, &err);
          break;
        }
        case MsgType::kShutdown:
          ok = false;  // close; with --once the process then exits
          break;
        default:
          // Named by its byte: a retired or unassigned type has no name.
          SendError(conn, "unexpected frame type " +
                              std::to_string(static_cast<unsigned>(
                                  frame.type)) +
                              " (" + MsgTypeName(frame.type) + ")");
          ok = false;
          break;
      }
    }
    // A CRC reject kills the connection before any later pull could see
    // it on this connection; carry it into the registry for the next one.
    if (conn.crc_rejects() > crc_folded) {
      m_crc_rejects->Add(conn.crc_rejects() - crc_folded);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < active_conns_.size(); ++i) {
        if (active_conns_[i] == &conn) {
          active_conns_.erase(active_conns_.begin() + i);
          break;
        }
      }
    }
    }  // frame-protocol path
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++served_;
  --active_;
  if (options_.once || (draining_ && active_ == 0)) {
    done_ = true;
    done_cv_.notify_all();
  }
}

}  // namespace net
}  // namespace ppa
