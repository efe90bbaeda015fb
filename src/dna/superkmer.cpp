#include "dna/superkmer.h"

namespace ppa {

size_t AppendSuperkmer(std::string_view bases, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  PutVarint64(out, bases.size());
  const size_t packed_bytes = (bases.size() + 3) / 4;
  out->resize(out->size() + packed_bytes, 0);
  uint8_t* packed = out->data() + out->size() - packed_bytes;
  for (size_t j = 0; j < bases.size(); ++j) {
    const int b = BaseFromChar(bases[j]);
    PPA_CHECK(b >= 0);  // the scanner only emits ACGT runs
    packed[j >> 2] |= static_cast<uint8_t>(b) << (2 * (j & 3));
  }
  return out->size() - start;
}

size_t AppendSuperkmerCodes(const uint8_t* codes, size_t size,
                            std::vector<uint8_t>* out) {
  const size_t start = out->size();
  PutVarint64(out, size);
  const size_t packed_bytes = (size + 3) / 4;
  out->resize(out->size() + packed_bytes);
  // PackCodes writes whole bytes (zero-padded tail), so packing straight
  // into the appended region needs no pre-clear.
  PackCodes(codes, size, out->data() + out->size() - packed_bytes);
  return out->size() - start;
}

bool SummarizeSuperkmerChunk(const uint8_t* data, size_t size, int mer_length,
                             SuperkmerChunkSummary* out) {
  *out = SuperkmerChunkSummary{};
  size_t pos = 0;
  while (pos < size) {
    uint64_t base_length = 0;
    if (!ParseSuperkmerHeader(data, size, &pos, mer_length, &base_length)) {
      return false;
    }
    ++out->records;
    out->windows += base_length - mer_length + 1;
    out->bases += base_length;
    pos += (base_length + 3) / 4;
  }
  return true;
}

bool DecodeSuperkmersToVector(const uint8_t* data, size_t size,
                              int mer_length, std::vector<uint64_t>* codes) {
  return DecodeSuperkmers(data, size, mer_length,
                          [codes](uint64_t code) { codes->push_back(code); });
}

}  // namespace ppa
