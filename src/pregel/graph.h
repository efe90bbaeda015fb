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

#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_table.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ppa {

/// A partition's id -> slot index: a FlatTable (util/flat_table.h) that
/// stores slot + 1, so its callers see slots and kAbsent. Ids are homed on
/// the top bits of Mix64(id), which PartitionOf's modulo leaves free. At
/// the table's maximum load of 0.85, Knuth's linear-probing estimates give
/// about 3.8 probes per hit and 22.7 per miss on average.
class IdSlotIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Slot of `id`, or kAbsent (the table's 0 for an absent id, less one).
  uint32_t Find(uint64_t id) const { return table_.Find(id) - 1; }

  /// Maps `id` to `slot` unless `id` is already present (the first mapping
  /// wins); returns the slot `id` maps to.
  uint32_t Insert(uint64_t id, uint32_t slot) {
    return table_.Insert(id, slot + 1) - 1;
  }

  /// Grows once so that `n` ids fit without further rehashing.
  void Reserve(size_t n) { table_.Reserve(n); }

  size_t size() const { return table_.size(); }

 private:
  FlatTable<uint64_t, IdHash> table_;
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
