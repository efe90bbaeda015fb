// Framed message transport for the distributed shard workers.
//
// The distributed mode ships exactly the record serialization the spill
// subsystem already writes to disk: a connection is an 8-byte magic
// ("PPANET01") in each direction, then a stream of frames
//
//   varint(length) CRC-32(LE, of what follows) 1-byte MsgType body
//
// — the spill file framing (spill/spill.h) with the file magic swapped for
// a connection magic and a message-type byte fronting each payload. Both
// ends decode with the same strictness as SpillReader: overlong/overflowing
// length varints, lengths past the frame cap, and CRC mismatches are hard
// protocol errors with a diagnostic, never a misread — these bytes arrive
// from a socket, not from our own writer.
//
// Endpoints are "unix:/path/to.sock", "host:port", or a bare port
// (= 127.0.0.1:port). Connected sockets carry SO_RCVTIMEO/SO_SNDTIMEO so a
// hung peer surfaces as a timeout diagnostic instead of a silent stall, and
// ConnectWithRetry bounds transient connect failures (a spawned worker
// still binding) with exponential backoff.
#ifndef PPA_NET_WIRE_H_
#define PPA_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppa {
namespace net {

/// Connection preamble, sent by each side before any frame.
extern const char kNetMagic[8];

/// Bumped on any incompatible wire change. v2 added the telemetry pull
/// (kMetricsRequest/kMetricsSnapshot); v3 the liveness exchange
/// (kHeartbeat/kHeartbeatOk); v4 the trace pull (kTraceRequest/
/// kTraceSnapshot), the clock-offset probe (kClockProbe/kClockProbeOk), and
/// hello flags (below); v5 the single pass-1 chunk format (super-k-mer
/// records only, no raw-code section, no per-record window offset), which
/// changes every kCounterChunk body; v6 retired the remote record store
/// (types 9-15), leaving kCounterChunk the only acknowledged data message.
/// Coordinator and worker ship together, so the worker accepts exactly
/// this version: any other hello is refused with one kError naming both
/// versions, which the coordinator throws.
constexpr uint32_t kProtocolVersion = 6;

/// Hello bodies carry varint(version) + varint(flags).
constexpr uint64_t kHelloFlagTrace = 1;  // arm the worker's span tracing

/// Hard cap on one frame's payload (type byte + body). Chunks and result
/// slices are tens of kilobytes; anything near this cap is a corrupt or
/// hostile length field.
constexpr uint64_t kMaxFramePayload = 64ULL << 20;

/// Message types. The counter service streams pass-1 chunks per shard and
/// returns per-(shard, partition) survivor slices. kAck flow-controls the
/// one data-plane message, kCounterChunk: the coordinator keeps a bounded
/// number of unacked bytes in flight per worker. Numbers 9-15 (the retired
/// record-store messages) stay unassigned, so every surviving frame keeps
/// its bytes and a worker refuses those type bytes as unknown.
enum class MsgType : uint8_t {
  kHello = 1,          // c->w: varint(version) varint(flags)
  kHelloOk = 2,        // w->c: varint(version)
  kCounterOpen = 3,    // c->w: varint(mer_length) varint(num_shards)
                       //       varint(num_workers) varint(coverage_threshold)
  kCounterChunk = 4,   // c->w: varint(shard) + EncodePass1Chunk payload [ack]
  kCounterFinish = 5,  // c->w: empty; worker finalizes and streams results
  kCounterResult = 6,  // w->c: varint(shard) varint(partition) varint(n)
                       //       n x (8B LE code, 4B LE count)
  kCounterShard = 7,   // w->c: varint(shard) varint(chunks) varint(windows)
                       //       varint(distinct)
  kCounterDone = 8,    // w->c: varint(shards reported)
  kAck = 16,           // w->c: varint(acked body bytes)
  kError = 17,         // w->c: diagnostic text; connection is then dead
  kShutdown = 18,      // c->w: worker process exits after this connection
  kMetricsRequest = 19,   // c->w: empty; worker replies with its registry
  kMetricsSnapshot = 20,  // w->c: obs::EncodeTelemetry payload
  kHeartbeat = 21,        // c->w: empty liveness probe
  kHeartbeatOk = 22,      // w->c: empty; any frame refreshes the deadline
  kTraceRequest = 23,     // c->w: empty; worker replies with its span rings
  kTraceSnapshot = 24,    // w->c: obs::EncodeTraceSnapshot payload
  kClockProbe = 25,       // c->w: empty; clock-offset ping
  kClockProbeOk = 26,     // w->c: zigzag varint(worker MonotonicMicros)
};

const char* MsgTypeName(MsgType type);

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> body;
};

/// A parsed endpoint spec.
struct Endpoint {
  bool is_unix = false;
  std::string path;        // unix domain socket path
  std::string host;        // TCP host (numeric or name)
  uint16_t port = 0;
  std::string spec;        // the original text, for diagnostics
};

/// Parses "unix:/path", "host:port", or "port". False with a diagnostic on
/// malformed specs.
bool ParseEndpoint(const std::string& spec, Endpoint* endpoint,
                   std::string* error);

/// Splits a comma-separated endpoint list (empty items dropped).
std::vector<std::string> SplitEndpoints(const std::string& csv);

/// Binds + listens. Returns the fd, or -1 with a diagnostic. A unix
/// endpoint unlinks a stale socket path first.
int ListenOn(const Endpoint& endpoint, std::string* error);

/// Accepts one connection; -1 with a diagnostic (or "" when the listener
/// was closed under it — the clean shutdown path).
int AcceptOn(int listen_fd, std::string* error);

/// Connects with bounded retry + exponential backoff on transient failures
/// (ECONNREFUSED / ENOENT: the worker process is still starting). Gives up
/// after ~`timeout_ms` with a diagnostic. Returns the fd or -1.
int ConnectWithRetry(const Endpoint& endpoint, int timeout_ms,
                     std::string* error);

/// One framed connection over a connected socket. Owns (and closes) the fd.
/// Receives are single-threaded; sends must be serialized by the caller
/// (the coordinator client holds a send mutex, the worker sends from its
/// one connection thread).
class FrameConn {
 public:
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn();

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  int fd() const { return fd_; }

  /// SO_RCVTIMEO + SO_SNDTIMEO; 0 = no timeout.
  void SetTimeouts(int timeout_ms);

  bool SendMagic(std::string* error);
  bool ExpectMagic(std::string* error);

  /// Writes one frame (length + CRC + type + body). False with a
  /// diagnostic on short writes or timeouts.
  bool Send(MsgType type, const uint8_t* body, size_t size,
            std::string* error);
  bool Send(MsgType type, const std::vector<uint8_t>& body,
            std::string* error) {
    return Send(type, body.data(), body.size(), error);
  }

  enum class RecvResult { kOk, kEof, kError };

  /// Reads one frame. kEof only at a clean frame boundary; everything else
  /// that is not a well-formed frame — truncation mid-frame, a length
  /// varint that overflows or exceeds kMaxFramePayload, a CRC mismatch, an
  /// empty payload (no type byte) — is kError with a diagnostic.
  RecvResult Recv(Frame* frame, std::string* error);

  /// Shuts the socket down (both directions), waking a Recv blocked on
  /// another thread; the destructor does the actual close, so the fd is
  /// never reused while a reader still references it. Idempotent.
  void Close();

  /// CRC-mismatched frames rejected by Recv on this connection — the
  /// worker exports this as telemetry (`worker.crc_rejects`).
  uint64_t crc_rejects() const { return crc_rejects_; }

  /// Fault-injection hook (net/faultinject.h): the next Send flips a CRC
  /// byte on the wire, so the peer's Recv sees a frame CRC mismatch.
  void CorruptNextSend() { corrupt_next_send_ = true; }

 private:
  bool ReadBytes(uint8_t* out, size_t n, bool* eof, std::string* error);

  int fd_ = -1;
  bool corrupt_next_send_ = false;
  uint64_t crc_rejects_ = 0;
  std::vector<uint8_t> buf_;
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
};

}  // namespace net
}  // namespace ppa

#endif  // PPA_NET_WIRE_H_
