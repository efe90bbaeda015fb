// Thread pool + parallel_for used to multiplex logical Pregel workers onto
// hardware threads.
//
// The engine partitions vertices across `num_workers` logical workers (the
// unit the paper scales from 16 to 64); those partitions are processed by up
// to hardware_concurrency() OS threads per superstep. Each superstep is a
// fork/join region; there is no cross-superstep thread state.
#ifndef PPA_UTIL_THREAD_POOL_H_
#define PPA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppa {

/// A fork/join pool: Run(n, fn) invokes fn(i) for i in [0, n), distributing
/// indices over the pool's threads, and returns when all calls finished.
/// num_threads == 0 means hardware concurrency (see Resolve). With one
/// thread everything runs on the caller's thread, which keeps single-core
/// environments (and deterministic unit tests) cheap.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads)
      : num_threads_(Resolve(num_threads)) {}

  unsigned num_threads() const { return num_threads_; }

  /// Runs fn(i) for each i in [0, n); blocks until done. fn must be
  /// thread-safe across distinct indices.
  void Run(uint32_t n, const std::function<void(uint32_t)>& fn) {
    if (n == 0) return;
    if (num_threads_ == 1 || n == 1) {
      for (uint32_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::atomic<uint32_t> next{0};
    auto worker = [&]() {
      for (;;) {
        uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    };
    unsigned spawned = std::min<unsigned>(num_threads_, n) - 1;
    std::vector<std::thread> threads;
    threads.reserve(spawned);
    for (unsigned t = 0; t < spawned; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  }

  /// The thread count a pool of `num_threads` runs: itself, or for 0 the
  /// hardware concurrency (at least 1).
  static unsigned Resolve(unsigned num_threads) {
    if (num_threads != 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

 private:
  unsigned num_threads_;
};

}  // namespace ppa

#endif  // PPA_UTIL_THREAD_POOL_H_
