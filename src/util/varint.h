// Variable-length integer coding (LEB128).
//
// The paper stores per-edge coverage counts "as variable-length integers to
// save space (e.g., a small count can often be represented with just one
// byte)" (Sec. IV.A). This is the coding used by the compressed k-mer
// adjacency lists in dbg/ and by the text_store record framing.
#ifndef PPA_UTIL_VARINT_H_
#define PPA_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppa {

/// Appends `value` to `out` using unsigned LEB128. Returns bytes written.
inline size_t PutVarint64(std::vector<uint8_t>* out, uint64_t value) {
  size_t n = 0;
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
    ++n;
  }
  out->push_back(static_cast<uint8_t>(value));
  return n + 1;
}

/// Decodes a varint starting at data[*pos]; advances *pos past it.
/// Returns false on truncated input, overlong (>10 byte) encodings, or a
/// 10th byte whose payload bits would not fit in 64 bits. Strictness
/// matters: this is the length field of every spill/wire record, and a
/// wrapped-instead-of-rejected length misframes the rest of the stream.
inline bool GetVarint64(const uint8_t* data, size_t size, size_t* pos,
                        uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = *pos;
  while (p < size && shift < 64) {
    uint8_t byte = data[p++];
    // The 10th byte (shift 63) contributes bit 63 only; any higher payload
    // bit encodes a value >= 2^64 and must fail rather than silently drop.
    if (shift == 63 && (byte & 0x7E) != 0) return false;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Number of bytes PutVarint64 would emit for `value`.
constexpr size_t VarintLength(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag transform so small negative numbers also encode compactly.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace ppa

#endif  // PPA_UTIL_VARINT_H_
