// ppa_shard_worker: one distributed shard worker process. Listens on an
// endpoint, serves the counter service over the framed spill wire format
// (net/wire.h), and — with --once — exits after its first connection
// ends, which is how the coordinator tears a spawned fleet down by just
// closing the sockets. SIGTERM/SIGINT drain gracefully: the in-flight
// frame completes, connections close, and the process exits 0 — so an
// orchestrator's routine stop never looks like a crash.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>

#include "net/faultinject.h"
#include "net/worker.h"
#include "util/logging.h"

namespace {

const char kUsage[] =
    "usage: ppa_shard_worker --listen <endpoint> [--once]\n"
    "                        [--io-timeout-ms N] [--fault-plan PLAN]\n"
    "                        [--log-level LEVEL]\n"
    "\n"
    "Endpoints: unix:/path/to.sock, host:port, or a bare port\n"
    "(= 127.0.0.1:port; port 0 picks a free one and logs it).\n"
    "--once exits after the first connection ends (spawned-fleet mode).\n"
    "--io-timeout-ms bounds each socket read/write (0 = no timeout).\n"
    "--fault-plan runs a deterministic fault script per connection\n"
    "(grammar in src/net/faultinject.h; kill-worker exits 137).\n"
    "--log-level: debug|info|warn|error|silent (default info: a server\n"
    "should say where it is listening). A coordinator that spawns the\n"
    "worker passes its own level.\n"
    "SIGTERM/SIGINT drain gracefully and exit 0.\n"
    "\n"
    "The listen socket also answers Prometheus scrapes: a connection whose\n"
    "first bytes are 'GET ' (e.g. curl http://host:port/metrics) gets this\n"
    "worker's metrics as a text exposition instead of the frame protocol.\n";

bool ParseU64(const char* text, uint64_t* value) {
  char* end = nullptr;
  *value = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // A server's one "I am up, here is my endpoint" line should be visible
  // by default; --log-level turns it (and everything else) down.
  ppa::SetLogLevel(ppa::LogLevel::kInfo);
  ppa::net::WorkerOptions options;
  // This binary owns its process, so kill-worker faults may _exit.
  options.allow_process_exit = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--once") {
      options.once = true;
    } else if (arg == "--listen") {
      if (i + 1 >= argc) {
        PPA_LOG(kError) << "ppa_shard_worker: --listen requires an endpoint";
        return 2;
      }
      options.listen = argv[++i];
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) {
        PPA_LOG(kError) << "ppa_shard_worker: --fault-plan requires a plan";
        return 2;
      }
      std::string plan_error;
      if (!ppa::net::FaultPlan::Parse(argv[++i], &options.fault_plan,
                                      &plan_error)) {
        PPA_LOG(kError) << "ppa_shard_worker: --fault-plan: " << plan_error;
        return 2;
      }
    } else if (arg == "--log-level") {
      ppa::LogLevel level;
      if (i + 1 >= argc || !ppa::ParseLogLevel(argv[++i], &level)) {
        PPA_LOG(kError)
            << "ppa_shard_worker: --log-level expects "
               "debug|info|warn|error|silent";
        return 2;
      }
      ppa::SetLogLevel(level);
    } else if (arg == "--io-timeout-ms") {
      if (i + 1 >= argc || !ParseU64(argv[++i], &value)) {
        PPA_LOG(kError) << "ppa_shard_worker: " << arg
                        << " requires a non-negative integer";
        return 2;
      }
      options.io_timeout_ms = static_cast<int>(value);
    } else {
      PPA_LOG(kError) << "ppa_shard_worker: unexpected argument '" << arg
                      << "'";
      std::cerr << kUsage;
      return 2;
    }
  }
  if (options.listen.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  // Graceful shutdown: block SIGTERM/SIGINT in every thread (the mask is
  // inherited), then let one watcher thread sigwait for them and start the
  // drain. SIGPIPE is ignored outright — a peer that vanishes mid-write
  // must surface as a send error on that connection, never kill the
  // process.
  std::signal(SIGPIPE, SIG_IGN);
  sigset_t drain_set;
  sigemptyset(&drain_set);
  sigaddset(&drain_set, SIGTERM);
  sigaddset(&drain_set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_set, nullptr);

  ppa::net::ShardWorkerServer server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    PPA_LOG(kError) << "ppa_shard_worker: " << error;
    return 1;
  }
  PPA_LOG(kInfo) << "ppa_shard_worker: listening on " << server.listen_spec();

  std::thread watcher([&server, &drain_set] {
    for (;;) {
      int sig = 0;
      if (sigwait(&drain_set, &sig) != 0) continue;
      if (sig == SIGTERM || sig == SIGINT) {
        PPA_LOG(kInfo) << "ppa_shard_worker: received "
                       << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                       << ", draining";
        server.BeginDrain();
        return;
      }
    }
  });

  server.Wait();
  // Unblock the watcher if the server finished on its own (--once): a
  // self-directed SIGTERM lands in sigwait and the thread exits its loop.
  kill(getpid(), SIGTERM);
  watcher.join();
  server.Stop();
  return 0;
}
