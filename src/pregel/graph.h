// Hash-partitioned vertex container.
//
// Pregel+ "distributes vertices to machines by hashing vertex ID" (Sec. II).
// A PartitionedGraph owns `num_workers` partitions; vertex v lives in
// partition PartitionOf(v.id). Each partition keeps a dense vertex vector
// plus an IdSlotIndex (id -> slot) for Find and for the engine's sends by
// id. Add routes one vertex; a job whose output is already routed (DBG
// phase (ii)'s reduce) moves each partition's vertices in whole and calls
// Reindex. A job graph that MirrorGraph builds (pregel/convert.h) starts
// with empty indexes: a job that sends only by slot (contig labeling, S-V)
// leaves them empty, and one that sends by id copies the source graph's
// with CopyIndex.
#ifndef PPA_PREGEL_GRAPH_H_
#define PPA_PREGEL_GRAPH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace ppa {

/// Open-addressing id -> slot table: the per-partition vertex index.
///
/// Linear probing over a power-of-two array of 16-byte {id, slot, live}
/// entries; no per-key heap node. An id's home entry is the top
/// log2(capacity) bits of Mix64(id), because PartitionOf already fixed
/// Mix64(id) mod num_workers for every id of one partition and the low bits
/// would collide. The table doubles before an insert would push the load
/// past 7/10, so the load stays at most 0.7 (and above 0.35 once grown); by
/// Knuth's linear-probing estimates a hit then probes at most ~2.2 entries
/// on average and a miss at most ~6.
class IdSlotIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Slot of `id`, or kAbsent.
  uint32_t Find(uint64_t id) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.live == 0) return kAbsent;
      if (e.id == id) return e.slot;
    }
  }

  /// Maps `id` to `slot` unless `id` is already present (the first mapping
  /// wins); returns the slot `id` maps to.
  uint32_t Insert(uint64_t id, uint32_t slot) {
    if ((size_ + 1) * 10 > entries_.size() * 7) Rehash(CapacityFor(size_ + 1));
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      Entry& e = entries_[i];
      if (e.live == 0) {
        e = Entry{id, slot, 1};
        ++size_;
        return slot;
      }
      if (e.id == id) return e.slot;
    }
  }

  /// Grows once so that `n` ids fit without further rehashing.
  void Reserve(size_t n) {
    if (n * 10 > entries_.size() * 7) Rehash(CapacityFor(n));
  }

  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t id = 0;
    uint32_t slot = 0;
    uint32_t live = 0;  // 1 once the entry holds an id.
  };

  static size_t CapacityFor(size_t n) {
    return std::bit_ceil(std::max<size_t>(16, n * 10 / 7 + 1));
  }

  size_t Home(uint64_t id) const { return Mix64(id) >> shift_; }

  void Rehash(size_t capacity) {
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    size_ = 0;
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.live != 0) Insert(e.id, e.slot);
    }
  }

  std::vector<Entry> entries_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

/// Partitioned vertex store. VertexT must expose:
///   uint64_t id;        -- unique vertex ID
///   bool removed;       -- lazy deletion flag
/// (Engine<VertexT> adds `halted`, `Message` and `Compute`; see engine.h.)
/// Adding appends and removing only marks, so (partition, slot) names the
/// same vertex until the next Compact.
template <typename VertexT>
class PartitionedGraph {
 public:
  struct Partition {
    std::vector<VertexT> vertices;
    IdSlotIndex index;

    /// Rebuilds the index from `vertices`, sized afresh for them (a
    /// cleared index would keep its old capacity, and CopyIndex copies
    /// it).
    void Reindex() {
      index = IdSlotIndex();
      index.Reserve(vertices.size());
      for (uint32_t i = 0; i < vertices.size(); ++i) {
        index.Insert(vertices[i].id, i);
      }
    }
  };

  explicit PartitionedGraph(uint32_t num_workers)
      : partitions_(num_workers) {
    PPA_CHECK(num_workers >= 1);
  }

  uint32_t num_workers() const {
    return static_cast<uint32_t>(partitions_.size());
  }

  /// Adds a vertex (routed by hash of its id). Not thread-safe.
  void Add(VertexT v) {
    Partition& p = partitions_[PartitionOf(v.id, num_workers())];
    p.index.Insert(v.id, static_cast<uint32_t>(p.vertices.size()));
    p.vertices.push_back(std::move(v));
  }

  Partition& partition(uint32_t i) { return partitions_[i]; }
  const Partition& partition(uint32_t i) const { return partitions_[i]; }

  /// Total vertices, including removed ones (cheap).
  size_t size() const {
    size_t n = 0;
    for (const auto& p : partitions_) n += p.vertices.size();
    return n;
  }

  /// Total live (non-removed) vertices.
  size_t live_size() const {
    size_t n = 0;
    for (const auto& p : partitions_) {
      for (const auto& v : p.vertices) {
        if (!v.removed) ++n;
      }
    }
    return n;
  }

  /// Pointer to the vertex with `id`, or nullptr if absent/removed.
  VertexT* Find(uint64_t id) {
    Partition& p = partitions_[PartitionOf(id, num_workers())];
    const uint32_t slot = p.index.Find(id);
    if (slot == IdSlotIndex::kAbsent) return nullptr;
    VertexT* v = &p.vertices[slot];
    return v->removed ? nullptr : v;
  }

  const VertexT* Find(uint64_t id) const {
    return const_cast<PartitionedGraph*>(this)->Find(id);
  }

  /// Invokes fn on every live vertex (serial).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& p : partitions_) {
      for (auto& v : p.vertices) {
        if (!v.removed) fn(v);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& p : partitions_) {
      for (const auto& v : p.vertices) {
        if (!v.removed) fn(v);
      }
    }
  }

  /// Physically erases removed vertices and rebuilds indexes, so jobs that
  /// copy an index (CopyIndex) pay for the graph as it is now.
  void Compact() {
    for (auto& p : partitions_) {
      std::vector<VertexT> kept;
      kept.reserve(p.vertices.size());
      for (auto& v : p.vertices) {
        if (!v.removed) kept.push_back(std::move(v));
      }
      p.vertices = std::move(kept);
      p.Reindex();
    }
  }

 private:
  std::vector<Partition> partitions_;
};

}  // namespace ppa

#endif  // PPA_PREGEL_GRAPH_H_
