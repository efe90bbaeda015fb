#include "net/wire.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "net/retry.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace ppa {
namespace net {

namespace {

constexpr size_t kIoBuffer = 1 << 16;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Full send with EINTR retry; MSG_NOSIGNAL so a dead peer surfaces as
/// EPIPE instead of killing the process.
bool SendAll(int fd, const uint8_t* data, size_t n, std::string* error) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        *error = "send timed out";
        return false;
      }
      *error = Errno("send failed");
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

const char kNetMagic[8] = {'P', 'P', 'A', 'N', 'E', 'T', '0', '1'};

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello-ok";
    case MsgType::kCounterOpen: return "counter-open";
    case MsgType::kCounterChunk: return "counter-chunk";
    case MsgType::kCounterFinish: return "counter-finish";
    case MsgType::kCounterResult: return "counter-result";
    case MsgType::kCounterShard: return "counter-shard";
    case MsgType::kCounterDone: return "counter-done";
    case MsgType::kAck: return "ack";
    case MsgType::kError: return "error";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kMetricsRequest: return "metrics-request";
    case MsgType::kMetricsSnapshot: return "metrics-snapshot";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatOk: return "heartbeat-ok";
    case MsgType::kTraceRequest: return "trace-request";
    case MsgType::kTraceSnapshot: return "trace-snapshot";
    case MsgType::kClockProbe: return "clock-probe";
    case MsgType::kClockProbeOk: return "clock-probe-ok";
  }
  return "unknown";
}

bool ParseEndpoint(const std::string& spec, Endpoint* endpoint,
                   std::string* error) {
  *endpoint = Endpoint{};
  endpoint->spec = spec;
  if (spec.empty()) {
    *error = "empty endpoint";
    return false;
  }
  if (spec.rfind("unix:", 0) == 0) {
    endpoint->is_unix = true;
    endpoint->path = spec.substr(5);
    if (endpoint->path.empty()) {
      *error = "endpoint '" + spec + "': empty unix socket path";
      return false;
    }
    if (endpoint->path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      *error = "endpoint '" + spec + "': unix socket path too long";
      return false;
    }
    return true;
  }
  const size_t colon = spec.rfind(':');
  const std::string host =
      colon == std::string::npos ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (host.empty() || port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    *error = "endpoint '" + spec + "': expected unix:/path, host:port, or port";
    return false;
  }
  // Port 0 is allowed: a listener binds an ephemeral port and reports the
  // resolved spec; connecting to it simply fails.
  const unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
  if (port > 65535) {
    *error = "endpoint '" + spec + "': port out of range";
    return false;
  }
  endpoint->host = host;
  endpoint->port = static_cast<uint16_t>(port);
  return true;
}

std::vector<std::string> SplitEndpoints(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    size_t first = start;
    size_t last = comma;
    while (first < last && std::isspace(static_cast<unsigned char>(csv[first])))
      ++first;
    while (last > first &&
           std::isspace(static_cast<unsigned char>(csv[last - 1])))
      --last;
    if (last > first) out.push_back(csv.substr(first, last - first));
    start = comma + 1;
  }
  return out;
}

namespace {

/// Builds the sockaddr for `endpoint`; TCP hosts resolve via getaddrinfo.
/// Returns a connected-family socket fd ready for bind/connect, or -1.
int OpenSocket(const Endpoint& endpoint, sockaddr_storage* addr,
               socklen_t* addr_len, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  if (endpoint.is_unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(addr);
    sun->sun_family = AF_UNIX;
    std::strncpy(sun->sun_path, endpoint.path.c_str(),
                 sizeof(sun->sun_path) - 1);
    *addr_len = sizeof(sockaddr_un);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) *error = Errno("socket(AF_UNIX) failed");
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(endpoint.host.c_str(),
                               std::to_string(endpoint.port).c_str(), &hints,
                               &res);
  if (rc != 0 || res == nullptr) {
    *error = "cannot resolve '" + endpoint.spec + "': " + gai_strerror(rc);
    return -1;
  }
  std::memcpy(addr, res->ai_addr, res->ai_addrlen);
  *addr_len = res->ai_addrlen;
  ::freeaddrinfo(res);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) *error = Errno("socket(AF_INET) failed");
  return fd;
}

}  // namespace

int ListenOn(const Endpoint& endpoint, std::string* error) {
  sockaddr_storage addr;
  socklen_t addr_len = 0;
  const int fd = OpenSocket(endpoint, &addr, &addr_len, error);
  if (fd < 0) return -1;
  if (endpoint.is_unix) {
    ::unlink(endpoint.path.c_str());  // stale socket from a dead worker
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) != 0) {
    *error = Errno("cannot bind '" + endpoint.spec + "'");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    *error = Errno("cannot listen on '" + endpoint.spec + "'");
    ::close(fd);
    return -1;
  }
  return fd;
}

int AcceptOn(int listen_fd, std::string* error) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    // EBADF / EINVAL: the listener was closed under us — clean shutdown.
    *error = (errno == EBADF || errno == EINVAL) ? "" : Errno("accept failed");
    return -1;
  }
}

int ConnectWithRetry(const Endpoint& endpoint, int timeout_ms,
                     std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Jitter the backoff per endpoint so a fleet of clients reconnecting to
  // the same box desynchronizes; the deadline, not an attempt count,
  // bounds the loop.
  BackoffPolicy policy;
  policy.jitter = 0.2;
  policy.seed = std::hash<std::string>{}(endpoint.spec);
  Backoff backoff(policy);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("net.retries");
  for (;;) {
    sockaddr_storage addr;
    socklen_t addr_len = 0;
    const int fd = OpenSocket(endpoint, &addr, &addr_len, error);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    // Transient while the worker process is still starting: the socket
    // path does not exist yet, or nothing is listening.
    const bool transient =
        err == ECONNREFUSED || err == ENOENT || err == EAGAIN;
    if (!transient || std::chrono::steady_clock::now() >= deadline) {
      errno = err;
      *error = Errno("cannot connect to '" + endpoint.spec + "'" +
                     (transient ? " (gave up after retries)" : ""));
      return -1;
    }
    uint32_t delay_ms = 0;
    backoff.NextDelayMs(&delay_ms);  // unbounded attempts: always true
    retries->Increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

// ---------------------------------------------------------------------------
// FrameConn
// ---------------------------------------------------------------------------

void FrameConn::SetTimeouts(int timeout_ms) {
  if (fd_ < 0 || timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void FrameConn::Close() {
  // Shutdown only: wakes a Recv blocked on another thread without racing
  // fd reuse; the destructor does the real close.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

FrameConn::~FrameConn() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

bool FrameConn::SendMagic(std::string* error) {
  return SendAll(fd_, reinterpret_cast<const uint8_t*>(kNetMagic),
                 sizeof(kNetMagic), error);
}

bool FrameConn::ExpectMagic(std::string* error) {
  uint8_t magic[sizeof(kNetMagic)];
  bool eof = false;
  if (!ReadBytes(magic, sizeof(magic), &eof, error)) {
    if (eof) *error = "connection closed before magic";
    return false;
  }
  if (std::memcmp(magic, kNetMagic, sizeof(magic)) != 0) {
    *error = "bad connection magic (not a ppa net peer?)";
    return false;
  }
  return true;
}

bool FrameConn::Send(MsgType type, const uint8_t* body, size_t size,
                     std::string* error) {
  const uint8_t type_byte = static_cast<uint8_t>(type);
  uint32_t crc = Crc32(&type_byte, 1);
  crc = Crc32(body, size, crc);
  if (corrupt_next_send_) {
    corrupt_next_send_ = false;
    crc ^= 0xFF;  // the peer's Recv rejects this frame as a CRC mismatch
  }
  std::vector<uint8_t> header;
  header.reserve(16);
  PutVarint64(&header, size + 1);  // + the type byte
  header.push_back(static_cast<uint8_t>(crc));
  header.push_back(static_cast<uint8_t>(crc >> 8));
  header.push_back(static_cast<uint8_t>(crc >> 16));
  header.push_back(static_cast<uint8_t>(crc >> 24));
  header.push_back(type_byte);
  return SendAll(fd_, header.data(), header.size(), error) &&
         (size == 0 || SendAll(fd_, body, size, error));
}

bool FrameConn::ReadBytes(uint8_t* out, size_t n, bool* eof,
                          std::string* error) {
  *eof = false;
  size_t off = 0;
  while (off < n) {
    if (buf_pos_ < buf_len_) {
      const size_t take = std::min(n - off, buf_len_ - buf_pos_);
      std::memcpy(out + off, buf_.data() + buf_pos_, take);
      buf_pos_ += take;
      off += take;
      continue;
    }
    if (buf_.empty()) buf_.resize(kIoBuffer);
    const ssize_t r = ::recv(fd_, buf_.data(), buf_.size(), 0);
    if (r == 0) {
      *eof = off == 0;
      *error = *eof ? "" : "connection closed mid-frame";
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      *error = (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? "receive timed out"
                   : Errno("recv failed");
      return false;
    }
    buf_pos_ = 0;
    buf_len_ = static_cast<size_t>(r);
  }
  return true;
}

FrameConn::RecvResult FrameConn::Recv(Frame* frame, std::string* error) {
  // Frame length varint, byte by byte, with the spill reader's strictness:
  // bits past 64 or an 11th byte are protocol errors, not wraparound.
  uint64_t length = 0;
  int shift = 0;
  bool eof = false;
  for (;;) {
    uint8_t byte;
    if (!ReadBytes(&byte, 1, &eof, error)) {
      if (eof && shift == 0) return RecvResult::kEof;
      if (eof) *error = "connection closed inside frame length";
      return RecvResult::kError;
    }
    if (shift == 63 && (byte & 0x7E) != 0) {
      *error = "frame length varint overflows 64 bits";
      return RecvResult::kError;
    }
    length |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) {
      *error = "overlong frame length varint";
      return RecvResult::kError;
    }
  }
  if (length == 0) {
    *error = "empty frame (missing message type)";
    return RecvResult::kError;
  }
  if (length > kMaxFramePayload) {
    *error = "frame length " + std::to_string(length) +
             " exceeds the frame cap";
    return RecvResult::kError;
  }

  uint8_t crc_bytes[4];
  if (!ReadBytes(crc_bytes, sizeof(crc_bytes), &eof, error)) {
    if (eof || error->empty()) *error = "connection closed inside frame";
    return RecvResult::kError;
  }
  uint8_t type_byte = 0;
  if (!ReadBytes(&type_byte, 1, &eof, error)) {
    if (eof || error->empty()) *error = "connection closed inside frame";
    return RecvResult::kError;
  }
  frame->body.resize(length - 1);
  if (length > 1 &&
      !ReadBytes(frame->body.data(), frame->body.size(), &eof, error)) {
    if (eof || error->empty()) *error = "connection closed inside frame";
    return RecvResult::kError;
  }

  const uint32_t expected = static_cast<uint32_t>(crc_bytes[0]) |
                            static_cast<uint32_t>(crc_bytes[1]) << 8 |
                            static_cast<uint32_t>(crc_bytes[2]) << 16 |
                            static_cast<uint32_t>(crc_bytes[3]) << 24;
  uint32_t actual = Crc32(&type_byte, 1);
  actual = Crc32(frame->body.data(), frame->body.size(), actual);
  if (actual != expected) {
    ++crc_rejects_;
    *error = "frame CRC mismatch";
    return RecvResult::kError;
  }
  frame->type = static_cast<MsgType>(type_byte);
  return RecvResult::kOk;
}

}  // namespace net
}  // namespace ppa
