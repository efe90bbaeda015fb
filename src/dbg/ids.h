// Vertex ID scheme (Fig. 7 of the paper).
//
// Three kinds of 64-bit IDs share one space:
//   * k-mer IDs: MSB = 0; the k-mer's 2-bit packed sequence right-aligned
//     (dna/kmer.h). k <= 31 guarantees bits 63 and 62 are zero.
//   * NULL ID: MSB = 1, all other bits 0 (Fig. 7b) — the dummy neighbor
//     marking a dead end.
//   * contig IDs: MSB = 1, then the worker index and the worker-local
//     ordinal ("the i-th worker machine assigns its j-th contig", Fig. 7c).
//     The low 32 bits hold the ordinal plus one, so worker 0's first
//     contig is not the NULL ID and kNullId always means "no neighbor".
//
// Contig labeling additionally "flips the second most significant bit" of a
// vertex's own ID to mark a contig-end predecessor slot (Sec. IV.B-2); that
// mark (bit 62) is meaningful only inside the labeling job. Because round-2
// labeling also runs over contig vertices, contig worker indexes are
// restricted to 30 bits so bit 62 stays free for the mark.
#ifndef PPA_DBG_IDS_H_
#define PPA_DBG_IDS_H_

#include <cstdint>

#include "util/logging.h"

namespace ppa {

/// The dummy NULL neighbor ID (Fig. 7b).
inline constexpr uint64_t kNullId = 1ULL << 63;

/// Bit used by contig labeling to mark "reached contig-end" IDs.
inline constexpr uint64_t kEndMarkBit = 1ULL << 62;

/// True iff `id` encodes a k-mer (vertex IDs only; end-marks cleared).
inline bool IsKmerId(uint64_t id) { return (id >> 63) == 0; }

/// True iff `id` is a contig vertex ID.
inline bool IsContigId(uint64_t id) {
  return (id >> 63) == 1 && id != kNullId;
}

/// Builds the ID of worker `worker`'s `ordinal`-th contig (ordinals count
/// from 0).
inline uint64_t MakeContigId(uint32_t worker, uint32_t ordinal) {
  PPA_CHECK(worker < (1u << 30));
  PPA_CHECK(ordinal < UINT32_MAX);
  return (1ULL << 63) | (static_cast<uint64_t>(worker) << 32) |
         (static_cast<uint64_t>(ordinal) + 1);
}

/// Worker index encoded in a contig ID.
inline uint32_t ContigIdWorker(uint64_t id) {
  return static_cast<uint32_t>((id >> 32) & ((1u << 30) - 1));
}

/// Worker-local ordinal encoded in a contig ID.
inline uint32_t ContigIdOrdinal(uint64_t id) {
  return static_cast<uint32_t>(id & 0xFFFFFFFFu) - 1;
}

/// Toggles the contig-end mark on an ID (labeling-internal).
inline uint64_t WithEndMark(uint64_t id) { return id | kEndMarkBit; }

/// True iff the labeling end-mark is set.
inline bool HasEndMark(uint64_t id) { return (id & kEndMarkBit) != 0; }

/// Clears the labeling end-mark.
inline uint64_t ClearEndMark(uint64_t id) { return id & ~kEndMarkBit; }

}  // namespace ppa

#endif  // PPA_DBG_IDS_H_
