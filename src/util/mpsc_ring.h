// Bounded lock-free multi-producer ring buffer (Vyukov's bounded MPMC
// queue, used MPSC here).
//
// The pass-1 scan->count handoff in dbg/kmer_counter used to move every
// sealed chunk through a session mutex; with one scanner per core that
// mutex is the first thing the multi-core bench hits. This ring replaces
// it for every chunk a counter thread drains: producers claim a cell with
// one CAS on the enqueue cursor, consumers with one CAS on the dequeue
// cursor, and the per-cell sequence number is the only synchronization
// between them —
// a cell's payload is published by the release store of its sequence and
// acquired by the matching load, so no two threads ever contend on a lock
// to move a chunk. Both cursors live on their own cache line; otherwise
// every push would invalidate every popper's line and vice versa.
//
// TryPush/TryPop never block: full/empty is returned to the caller, which
// owns the waiting policy (kmer_counter spins briefly, then parks on a
// condvar — see counting.queue_spin). On failure the value is untouched,
// so a producer can retry the same chunk.
#ifndef PPA_UTIL_MPSC_RING_H_
#define PPA_UTIL_MPSC_RING_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace ppa {

template <typename T>
class MpscRing {
 public:
  /// `capacity` must be a power of two >= 2.
  explicit MpscRing(size_t capacity)
      : mask_(capacity - 1), cells_(new Cell[capacity]) {
    PPA_CHECK(capacity >= 2 && std::has_single_bit(capacity));
    for (size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Enqueues by move. False when the ring is full; `value` is untouched
  /// then and the caller may retry.
  bool TryPush(T&& value) {
    Cell* cell;
    uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // Cell is free at this position; claim it.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed lap: full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Dequeues into *out. False when the ring is empty.
  bool TryPop(T* out) {
    Cell* cell;
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // the producer has not published this lap: empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(cell->value);
    // Drop the moved-from shell now, not when the cell is overwritten a
    // full lap later — chunks own heap buffers that would otherwise idle
    // in the ring.
    cell->value = T();
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// True when no published element is waiting. Only meaningful to the
  /// consumer once producers have stopped (e.g. the finishing drain).
  bool Empty() const {
    return dequeue_pos_.load(std::memory_order_acquire) ==
           enqueue_pos_.load(std::memory_order_acquire);
  }

  /// Instantaneous fullness hint for wait predicates; a racing pop can
  /// make it stale immediately, so callers must still retry TryPush.
  bool Full() const {
    return enqueue_pos_.load(std::memory_order_acquire) -
               dequeue_pos_.load(std::memory_order_acquire) >
           mask_;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq;
    T value;
  };

  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  // Producers hammer one cursor, the consumer the other; separate lines
  // keep a push from stealing the popper's line (and the cold members
  // above from riding along).
  alignas(64) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_pos_{0};
};

}  // namespace ppa

#endif  // PPA_UTIL_MPSC_RING_H_
