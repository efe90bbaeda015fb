#include "io/fasta_writer.h"

#include <algorithm>
#include <fstream>

#include "util/logging.h"

namespace ppa {

namespace {

void WriteWrapped(std::ostream& out, const std::string& seq,
                  size_t line_width) {
  if (seq.empty()) {
    out << '\n';
    return;
  }
  for (size_t i = 0; i < seq.size(); i += line_width) {
    out.write(seq.data() + i, static_cast<std::streamsize>(
                                  std::min(line_width, seq.size() - i)));
    out << '\n';
  }
}

}  // namespace

void WriteContigsFasta(std::ostream& out,
                       const std::vector<ContigRecord>& contigs,
                       size_t line_width) {
  for (const ContigRecord& c : contigs) {
    out << ">contig_" << c.id << " length=" << c.seq.size()
        << " coverage=" << c.coverage << " circular=" << (c.circular ? 1 : 0)
        << '\n';
    WriteWrapped(out, c.seq.ToString(), line_width);
  }
}

void WriteContigsFasta(const std::string& path,
                       const std::vector<ContigRecord>& contigs,
                       size_t line_width) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  PPA_CHECK(out.good());
  WriteContigsFasta(out, contigs, line_width);
  out.flush();
  PPA_CHECK(out.good());
}

}  // namespace ppa
