#include "net/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/varint.h"

namespace ppa {
namespace net {

namespace {

uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

WorkerClient::WorkerClient(const Options& options) : options_(options) {
  unacked_gauge_ = obs::MetricsRegistry::Global().GetGauge(
      "net.worker." + options.endpoint + ".unacked_bytes");
  Endpoint endpoint;
  std::string err;
  if (!ParseEndpoint(options.endpoint, &endpoint, &err)) {
    throw std::runtime_error(err);
  }
  auto handshake_error = [&](const std::string& what) {
    return std::runtime_error("worker '" + options_.endpoint +
                              "': handshake failed: " + what);
  };
  const int fd = ConnectWithRetry(endpoint, options.connect_timeout_ms, &err);
  if (fd < 0) {
    throw std::runtime_error("worker '" + options.endpoint + "': " + err);
  }
  conn_ = std::make_unique<FrameConn>(fd);
  conn_->SetTimeouts(options.io_timeout_ms);
  std::vector<uint8_t> hello;
  PutVarint64(&hello, kProtocolVersion);
  PutVarint64(&hello, options_.arm_trace ? kHelloFlagTrace : 0);
  if (!conn_->SendMagic(&err) || !conn_->Send(MsgType::kHello, hello, &err) ||
      !conn_->ExpectMagic(&err)) {
    throw handshake_error(err);
  }
  Frame frame;
  if (conn_->Recv(&frame, &err) != FrameConn::RecvResult::kOk) {
    throw handshake_error(err.empty() ? "connection closed" : err);
  }
  if (frame.type == MsgType::kError) {
    throw handshake_error(std::string(frame.body.begin(), frame.body.end()));
  }
  if (frame.type != MsgType::kHelloOk) {
    throw handshake_error(std::string("unexpected ") +
                          MsgTypeName(frame.type));
  }
  size_t pos = 0;
  uint64_t version = 0;
  if (!GetVarint64(frame.body.data(), frame.body.size(), &pos, &version) ||
      version != kProtocolVersion) {
    throw handshake_error("protocol version mismatch");
  }
  last_frame_ms_.store(SteadyNowMs(), std::memory_order_relaxed);
  receiver_ = std::thread([this] { ReceiveLoop(); });
  // A first offset estimate while the link is otherwise silent; trace
  // collection re-probes right before it pulls the rings.
  ProbeClockOffset();
}

bool WorkerClient::ProbeClockOffset(int probes) {
  int64_t best_rtt = 0;
  int64_t best_offset = 0;
  bool any = false;
  for (int i = 0; i < probes; ++i) {
    const int64_t t0 = static_cast<int64_t>(MonotonicMicros());
    int64_t tw = 0;
    bool got = false;
    const bool ok = Exchange(
        MsgType::kClockProbe, {}, MsgType::kClockProbeOk,
        [&](const Frame& frame) {
          if (frame.type != MsgType::kClockProbeOk) return false;
          size_t pos = 0;
          uint64_t raw = 0;
          if (!GetVarint64(frame.body.data(), frame.body.size(), &pos,
                           &raw)) {
            return false;
          }
          tw = ZigZagDecode(raw);
          got = true;
          return true;
        });
    const int64_t t1 = static_cast<int64_t>(MonotonicMicros());
    if (!ok || !got) break;  // failed link: keep whatever we have
    const int64_t rtt = t1 - t0;
    if (!any || rtt < best_rtt) {
      // The worker stamped tw somewhere inside [t0, t1]; the midpoint
      // guess errs by at most rtt/2, so the min-RTT sample bounds the
      // estimate tightest.
      best_rtt = rtt;
      best_offset = tw - (t0 + t1) / 2;
      any = true;
    }
  }
  if (any) clock_offset_us_.store(best_offset, std::memory_order_relaxed);
  return any;
}

uint64_t WorkerClient::millis_since_last_frame() const {
  const uint64_t last = last_frame_ms_.load(std::memory_order_relaxed);
  const uint64_t now = SteadyNowMs();
  return now > last ? now - last : 0;
}

WorkerClient::~WorkerClient() {
  if (conn_ != nullptr) conn_->Close();
  if (receiver_.joinable()) receiver_.join();
}

bool WorkerClient::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string WorkerClient::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void WorkerClient::Fail(const std::string& what) {
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_) {
      failed_ = true;
      error_ = "worker '" + options_.endpoint + "': " + what;
    }
    drained.swap(unacked_);
    window_used_ = 0;
    unacked_gauge_->Set(0);
    window_cv_.notify_all();
    inbox_cv_.notify_all();
  }
  // Wake a receive (or send) blocked on the socket from another thread.
  conn_->Close();
  // Owed completion callbacks run outside mu_ — they take the owners'
  // locks (e.g. the counter session's) and must never nest under ours.
  for (Pending& pending : drained) {
    if (pending.done) pending.done();
  }
}

bool WorkerClient::SendData(MsgType type, std::vector<uint8_t> body,
                            std::function<void()> done) {
  const uint64_t n = body.size();
  {
    PPA_TRACE_SPAN_V("net.ack_wait", "net", n);
    std::unique_lock<std::mutex> lock(mu_);
    window_cv_.wait(lock, [&] {
      return failed_ || window_used_ == 0 ||
             window_used_ + n <= options_.window_bytes;
    });
    if (failed_) {
      lock.unlock();
      if (done) done();
      return false;
    }
    window_used_ += n;
    unacked_gauge_->Set(window_used_);
  }
  std::string err;
  bool sent = false;
  {
    PPA_TRACE_SPAN_V("net.send", "net", n);
    std::lock_guard<std::mutex> send_lock(send_mu_);
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!failed_) {
        // Push before writing (both under send_mu_) so the FIFO order is
        // exactly the wire order the worker acks in.
        unacked_.push_back(Pending{n, std::move(done)});
        queued = true;
      }
    }
    if (!queued) {
      // Failed while waiting for the send lock; Fail() already zeroed the
      // window ledger, so only the callback is still owed.
      if (done) done();
      return false;
    }
    // mu_ is NOT held here: the worker acks over the same socket it reads
    // from, so a blocked write holding mu_ would deadlock the receive
    // thread (and with it the ack that would unblock the write).
    sent = conn_->Send(type, body, &err);
  }
  if (!sent) Fail("send failed: " + err);
  return sent;
}

bool WorkerClient::SendControl(MsgType type, const std::vector<uint8_t>& body) {
  std::lock_guard<std::mutex> send_lock(send_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return false;
  }
  std::string err;
  if (!conn_->Send(type, body, &err)) {
    Fail("send failed: " + err);
    return false;
  }
  return true;
}

void WorkerClient::SendHeartbeat() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Unacked data in flight means acks are due on this link, and any ack
    // refreshes the liveness clock — probing adds nothing. It also means
    // the socket buffer may be full (a stalled worker), and a blocking
    // write here would hold up heartbeats to every other worker.
    if (failed_ || window_used_ > 0) return;
  }
  std::unique_lock<std::mutex> send_lock(send_mu_, std::try_to_lock);
  if (!send_lock.owns_lock()) return;  // a send is in flight: link not idle
  std::string err;
  if (!conn_->Send(MsgType::kHeartbeat, std::vector<uint8_t>(), &err)) {
    Fail("send failed: " + err);
  }
}

bool WorkerClient::NextResponse(Frame* frame) {
  std::unique_lock<std::mutex> lock(mu_);
  inbox_cv_.wait(lock, [&] { return failed_ || !inbox_.empty(); });
  // Frames that arrived before a failure still deliver, so a worker that
  // reports an error after valid results fails at the right boundary.
  if (inbox_.empty()) return false;
  *frame = std::move(inbox_.front());
  inbox_.pop_front();
  return true;
}

bool WorkerClient::Exchange(MsgType type, const std::vector<uint8_t>& body,
                            MsgType end,
                            const std::function<bool(const Frame&)>& visit) {
  std::lock_guard<std::mutex> request_lock(request_mu_);
  if (!SendControl(type, body)) return false;
  for (;;) {
    Frame frame;
    if (!NextResponse(&frame)) return false;
    if (!visit(frame)) {
      Fail(std::string("unexpected ") + MsgTypeName(frame.type) +
           " during " + MsgTypeName(type) + " exchange");
      return false;
    }
    if (frame.type == end) return true;
  }
}

void WorkerClient::ReceiveLoop() {
  for (;;) {
    Frame frame;
    std::string err;
    const FrameConn::RecvResult result = conn_->Recv(&frame, &err);
    if (result == FrameConn::RecvResult::kEof) {
      Fail("connection closed by worker");
      return;
    }
    if (result == FrameConn::RecvResult::kError) {
      Fail(err);
      return;
    }
    last_frame_ms_.store(SteadyNowMs(), std::memory_order_relaxed);
    if (frame.type == MsgType::kHeartbeatOk) continue;
    if (frame.type == MsgType::kAck) {
      size_t pos = 0;
      uint64_t bytes = 0;
      Pending acked;
      bool in_order =
          GetVarint64(frame.body.data(), frame.body.size(), &pos, &bytes);
      {
        std::lock_guard<std::mutex> lock(mu_);
        in_order = in_order && !unacked_.empty() &&
                   unacked_.front().bytes == bytes;
        if (in_order) {
          acked = std::move(unacked_.front());
          unacked_.pop_front();
          window_used_ -= acked.bytes;
          unacked_gauge_->Set(window_used_);
          window_cv_.notify_all();
        }
      }
      if (!in_order) {
        Fail("worker acked a frame it was not sent");
        return;
      }
      if (acked.done) acked.done();
      continue;
    }
    if (frame.type == MsgType::kError) {
      Fail("worker reported: " +
           std::string(frame.body.begin(), frame.body.end()));
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(std::move(frame));
    inbox_cv_.notify_all();
  }
}

}  // namespace net

// ---------------------------------------------------------------------------
// NetContext
// ---------------------------------------------------------------------------

namespace {

std::string DefaultWorkerBinary() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "ppa_shard_worker";
  return (self.parent_path() / "ppa_shard_worker").string();
}

std::string MakeSocketDir() {
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  std::mt19937_64 rng(std::random_device{}());
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::filesystem::path dir =
        base / ("ppa-net-" + std::to_string(getpid()) + "-" +
                std::to_string(rng() & 0xFFFFFF));
    if (std::filesystem::create_directory(dir, ec) && !ec) {
      return dir.string();
    }
  }
  throw std::runtime_error("could not create a worker socket directory in " +
                           base.string());
}

pid_t SpawnWorker(const std::string& binary, const std::string& endpoint,
                  const std::string& fault_plan, std::string* error) {
  // A spawned worker logs at this process's level, so --log-level reaches
  // the whole fleet. The argv is built before fork: the child only execs.
  std::vector<const char*> argv = {"ppa_shard_worker", "--listen",
                                   endpoint.c_str(), "--once", "--log-level",
                                   LogLevelFlagValue(GetLogLevel())};
  if (!fault_plan.empty()) {
    argv.push_back("--fault-plan");
    argv.push_back(fault_plan.c_str());
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork failed: ") + std::strerror(errno);
    return -1;
  }
  if (pid == 0) {
    execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    // Exec failed; the parent surfaces it as a connect failure naming the
    // endpoint after its bounded retry.
    _exit(127);
  }
  return pid;
}

}  // namespace

void NetContext::StartLiveness(int io_timeout_ms) {
  if (io_timeout_ms <= 0) return;
  const auto interval =
      std::chrono::milliseconds(std::max(10, io_timeout_ms / 4));
  const uint64_t deadline_ms = static_cast<uint64_t>(io_timeout_ms);
  liveness_ = std::thread([this, interval, deadline_ms] {
    std::unique_lock<std::mutex> lock(liveness_mu_);
    while (!liveness_cv_.wait_for(lock, interval,
                                  [this] { return liveness_stop_; })) {
      for (auto& client : clients_) {
        if (client->failed()) continue;
        if (client->millis_since_last_frame() > deadline_ms) {
          client->FailForRecovery(
              "no frame or heartbeat reply within " +
              std::to_string(deadline_ms) + "ms (worker presumed dead)");
          continue;
        }
        client->SendHeartbeat();
      }
    }
  });
}

void NetContext::StopLiveness() {
  {
    std::lock_guard<std::mutex> lock(liveness_mu_);
    liveness_stop_ = true;
  }
  liveness_cv_.notify_all();
  if (liveness_.joinable()) liveness_.join();
}

NetContext::~NetContext() {
  StopLiveness();
  for (auto& client : clients_) {
    if (client != nullptr && !client->failed()) {
      client->SendControl(net::MsgType::kShutdown, {});
    }
  }
  clients_.clear();  // closes connections; --once workers exit on EOF
  for (const pid_t pid : spawned_) {
    // Give the worker a moment to exit on its own, then force it — the
    // pipeline must never hang in teardown on a wedged worker.
    bool reaped = false;
    for (int i = 0; i < 150 && !reaped; ++i) {
      int status = 0;
      const pid_t r = waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!reaped) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  if (!spawn_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spawn_dir_, ec);
  }
}

std::string NetContext::error() const {
  for (const auto& client : clients_) {
    std::string e = client->error();
    if (!e.empty()) return e;
  }
  return "";
}

std::vector<obs::TelemetrySnapshot> NetContext::CollectMetrics() {
  std::vector<obs::TelemetrySnapshot> out;
  for (auto& client : clients_) {
    if (client->failed()) continue;
    obs::TelemetrySnapshot snap;
    snap.source = client->endpoint();
    bool decoded = false;
    const bool ok = client->Exchange(
        net::MsgType::kMetricsRequest, {}, net::MsgType::kMetricsSnapshot,
        [&](const net::Frame& frame) {
          if (frame.type != net::MsgType::kMetricsSnapshot) return false;
          std::string err;
          decoded = obs::DecodeTelemetry(frame.body.data(), frame.body.size(),
                                         &snap.metrics, &err);
          if (!decoded) {
            PPA_LOG(kWarning) << "telemetry from '" << snap.source
                              << "' did not decode: " << err;
          }
          // Accept the frame either way: a bad snapshot skips this worker,
          // it does not fail a connection that served all its data.
          return true;
        });
    if (ok && decoded) out.push_back(std::move(snap));
  }
  return out;
}

std::vector<obs::ProcessTrace> NetContext::CollectTraces() {
  std::vector<obs::ProcessTrace> out;
  // Without a local trace session there is no merged timeline to build —
  // and the workers were never asked to arm, so their rings are empty.
  if (!obs::TraceEnabled()) return out;
  for (auto& client : clients_) {
    if (client->failed()) continue;
    // Re-probe now: the merged trace uses one offset per worker, and an
    // estimate from the same neighborhood as the spans it corrects beats
    // the handshake-time one on a long run.
    client->ProbeClockOffset();
    obs::ProcessTrace trace;
    trace.label = client->endpoint();
    trace.clock_offset_us = client->clock_offset_us();
    bool decoded = false;
    const bool ok = client->Exchange(
        net::MsgType::kTraceRequest, {}, net::MsgType::kTraceSnapshot,
        [&](const net::Frame& frame) {
          if (frame.type != net::MsgType::kTraceSnapshot) return false;
          std::string err;
          decoded = obs::DecodeTraceSnapshot(frame.body.data(),
                                             frame.body.size(), &trace, &err);
          if (!decoded) {
            PPA_LOG(kWarning) << "trace from '" << trace.label
                              << "' did not decode: " << err;
          }
          // Accept the frame either way — a bad snapshot skips this
          // worker, it does not fail the connection.
          return true;
        });
    if (ok && decoded) out.push_back(std::move(trace));
  }
  return out;
}

std::unique_ptr<NetContext> MakeNetContext(const NetConfig& config) {
  std::vector<std::string> specs;
  if (!config.endpoints.empty()) {
    specs = net::SplitEndpoints(config.endpoints);
    if (specs.empty()) {
      throw std::runtime_error("no worker endpoints in '" + config.endpoints +
                               "'");
    }
  } else if (config.spawn_workers == 0) {
    return nullptr;
  }

  net::FaultPlan fault_plan;
  {
    std::string err;
    if (!net::FaultPlan::Parse(config.fault_plan, &fault_plan, &err)) {
      throw std::runtime_error(err);
    }
  }

  std::unique_ptr<NetContext> ctx(new NetContext());
  if (specs.empty()) {
    const std::string binary = config.worker_binary.empty()
                                   ? DefaultWorkerBinary()
                                   : config.worker_binary;
    ctx->spawn_dir_ = MakeSocketDir();
    for (uint32_t w = 0; w < config.spawn_workers; ++w) {
      const std::string spec = "unix:" + ctx->spawn_dir_ + "/worker-" +
                               std::to_string(w) + ".sock";
      std::string err;
      const pid_t pid = SpawnWorker(binary, spec,
                                    fault_plan.ForWorker(w).ToString(), &err);
      if (pid < 0) {
        throw std::runtime_error("spawning '" + binary + "': " + err);
      }
      ctx->spawned_.push_back(pid);
      specs.push_back(spec);
    }
    ctx->description_ = std::to_string(config.spawn_workers) +
                        " spawned local workers (" + binary + ")";
  } else {
    ctx->description_ =
        std::to_string(specs.size()) + " worker endpoints (" +
        config.endpoints + ")";
  }

  for (const std::string& spec : specs) {
    net::WorkerClient::Options opts;
    opts.endpoint = spec;
    opts.window_bytes = config.window_bytes;
    opts.io_timeout_ms = config.io_timeout_ms;
    opts.connect_timeout_ms = config.connect_timeout_ms;
    opts.arm_trace = config.arm_trace;
    // The client constructor throws on connect/handshake failure; the
    // partially built context then tears down whatever was spawned.
    ctx->clients_.push_back(std::make_unique<net::WorkerClient>(opts));
  }
  ctx->StartLiveness(config.io_timeout_ms);
  return ctx;
}

}  // namespace ppa
