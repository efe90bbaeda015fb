// The one open-addressing hash table: the k-mer counter's shard tables
// (dbg/kmer_counter.cpp), each graph partition's id -> slot index
// (pregel/graph.h) and the shuffle's group-by index (pregel/mapreduce.h).
// One generic table in place of a probe loop per use, the khash idiom.
#ifndef PPA_UTIL_FLAT_TABLE_H_
#define PPA_UTIL_FLAT_TABLE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace ppa {

/// Linear-probing map from K to a nonzero uint32_t.
///
/// Keys and values sit in two arrays of one power-of-two capacity, so a
/// slot costs sizeof(K) + 4 bytes. A value of 0 marks an empty slot, so no
/// key needs to be reserved as a sentinel; callers store what is never 0,
/// a count (at least 1) or an index plus one.
///
/// A key's home slot is the top log2(capacity) bits of the 64-bit
/// Hash()(key). The low bits would collide: PartitionOf (util/hash.h)
/// routes vertex ids, and the shuffle routes keys, by hash modulo the
/// worker count W, so every key one partition holds shares its hash's
/// residue mod W, and at W = 16 a low-bit home would leave 15 slots in 16
/// no key's home.
///
/// A default-constructed table allocates nothing. The first insert sizes
/// it to 16 slots, or Reserve to more, and it doubles only when inserting a
/// new key would pass 85% load, so a lookup or a repeated key never grows
/// it and, once grown, the load stays in (0.425, 0.85].
template <typename K, typename Hash>
class FlatTable {
 public:
  /// The value of `key`, or 0 when `key` is absent.
  uint32_t Find(const K& key) const {
    return size_ == 0 ? 0 : values_[Locate(key)];
  }

  /// The value of `key`, inserted as 0 when `key` is absent (as
  /// std::map::operator[] does). 0 marks an empty slot, so the caller
  /// stores a nonzero value into a new key's slot before the table is used
  /// again.
  uint32_t& operator[](const K& key) {
    if (values_.empty()) Grow(1);
    size_t i = Locate(key);
    if (values_[i] == 0) {
      if (Grow(size_ + 1)) i = Locate(key);
      keys_[i] = key;
      ++size_;
    }
    return values_[i];
  }

  /// Stores `value` (nonzero) under `key` unless `key` is present, and
  /// returns the value `key` maps to: the first insert wins.
  uint32_t Insert(const K& key, uint32_t value) {
    uint32_t& stored = (*this)[key];
    if (stored == 0) stored = value;
    return stored;
  }

  /// Grows once so that `n` keys fit without further growth.
  void Reserve(size_t n) { Grow(n); }

  /// Calls fn(key, value) once per key, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < values_.size(); ++i) {
      if (values_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return values_.size(); }

 private:
  static constexpr size_t kMinCapacity = 16;

  // The slot that holds `key`, or the empty slot that ends its probe run.
  // A free slot always exists, because the load never passes 0.85.
  size_t Locate(const K& key) const {
    size_t i = static_cast<uint64_t>(Hash()(key)) >> shift_;
    while (values_[i] != 0 && !(keys_[i] == key)) i = (i + 1) & mask_;
    return i;
  }

  // Rehashes into the smallest capacity that holds `n` keys at most 85%
  // full, if the current one does not; returns whether it did.
  bool Grow(size_t n) {
    if (n * 20 <= values_.size() * 17) return false;
    size_t capacity = kMinCapacity;
    while (n * 20 > capacity * 17) capacity *= 2;
    std::vector<K> old_keys = std::exchange(keys_, std::vector<K>(capacity));
    std::vector<uint32_t> old_values =
        std::exchange(values_, std::vector<uint32_t>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (size_t i = 0; i < old_values.size(); ++i) {
      if (old_values[i] == 0) continue;
      const size_t j = Locate(old_keys[i]);
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
    return true;
  }

  std::vector<K> keys_;
  std::vector<uint32_t> values_;  // 0 = empty slot
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace ppa

#endif  // PPA_UTIL_FLAT_TABLE_H_
