// Minimal leveled logger used across the library.
//
// Logging must never be on the hot path of a superstep; operations log one
// line per superstep at most (at kDebug), and one line per operation at
// kInfo. The level is a process-wide atomic so tests can silence output.
#ifndef PPA_UTIL_LOGGING_H_
#define PPA_UTIL_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>

#include "util/timer.h"

namespace ppa {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kSilent = 4,
};

/// Small dense per-thread id (1, 2, 3, ... in first-log order), shared by
/// the logger prefix and the trace subsystem so a log line and a trace
/// track with the same id are the same thread.
inline uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

namespace internal {

inline std::atomic<int>& LogLevelFlag() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kWarning)};
  return level;
}

inline std::mutex& LogMutex() {
  static std::mutex mu;
  return mu;
}

// One log statement; flushes the accumulated message on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    // Prefix: level, monotonic ms since process start, dense thread id,
    // source location — e.g. "[INFO 12.345 t3 kmer_counter.cpp:88] ".
    const uint64_t us = MonotonicMicros();
    stream_ << "[" << LevelName(level) << " " << (us / 1000) << "."
            << static_cast<char>('0' + (us / 100) % 10)
            << static_cast<char>('0' + (us / 10) % 10)
            << static_cast<char>('0' + us % 10) << " t" << ThisThreadId()
            << " " << base << ":" << line << "] ";
  }

  ~LogMessage() {
    if (static_cast<int>(level_) < LogLevelFlag().load()) return;
    stream_ << "\n";
    std::lock_guard<std::mutex> lock(LogMutex());
    std::fputs(stream_.str().c_str(), stderr);
  }

  std::ostringstream& stream() { return stream_; }

 private:
  static const char* LevelName(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug:
        return "DEBUG";
      case LogLevel::kInfo:
        return "INFO";
      case LogLevel::kWarning:
        return "WARN";
      case LogLevel::kError:
        return "ERROR";
      default:
        return "?";
    }
  }

  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

/// Sets the global log level; messages below it are discarded.
inline void SetLogLevel(LogLevel level) {
  internal::LogLevelFlag().store(static_cast<int>(level));
}

/// The global log level.
inline LogLevel GetLogLevel() {
  return static_cast<LogLevel>(internal::LogLevelFlag().load());
}

/// The --log-level value that ParseLogLevel reads back as `level`.
inline const char* LogLevelFlagValue(LogLevel level) {
  static const char* const kValues[] = {"debug", "info", "warn", "error",
                                        "silent"};
  return kValues[static_cast<int>(level)];
}

/// Parses a --log-level value ("debug", "info", "warn"/"warning", "error",
/// "silent"). False on anything else.
inline bool ParseLogLevel(const std::string& text, LogLevel* level) {
  if (text == "debug") {
    *level = LogLevel::kDebug;
  } else if (text == "info") {
    *level = LogLevel::kInfo;
  } else if (text == "warn" || text == "warning") {
    *level = LogLevel::kWarning;
  } else if (text == "error") {
    *level = LogLevel::kError;
  } else if (text == "silent") {
    *level = LogLevel::kSilent;
  } else {
    return false;
  }
  return true;
}

#define PPA_LOG(level)                                                \
  ::ppa::internal::LogMessage(::ppa::LogLevel::level, __FILE__, __LINE__) \
      .stream()

// Fatal check used for programmer errors (not data errors).
#define PPA_CHECK(cond)                                                      \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "PPA_CHECK failed at %s:%d: %s\n", __FILE__,      \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// PPA_CHECK that also prints `context`, a std::string expression built only
// on failure (for example, the name of the job that broke a contract).
#define PPA_CHECK_MSG(cond, context)                                         \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "PPA_CHECK failed at %s:%d: %s: %s\n", __FILE__,  \
                   __LINE__, #cond, std::string(context).c_str());           \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

}  // namespace ppa

#endif  // PPA_UTIL_LOGGING_H_
