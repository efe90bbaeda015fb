// FASTA writer for assembly outputs.
//
// Contigs are written as standard 80-column FASTA with a metadata header
// (`>contig_<id> length=<n> coverage=<c> circular=<0|1>`) so downstream
// tools (QUAST, aligners) consume them directly.
#ifndef PPA_IO_FASTA_WRITER_H_
#define PPA_IO_FASTA_WRITER_H_

#include <ostream>
#include <string>
#include <vector>

#include "core/assembler.h"

namespace ppa {

/// Writes contigs as FASTA with metadata headers.
void WriteContigsFasta(std::ostream& out,
                       const std::vector<ContigRecord>& contigs,
                       size_t line_width = 80);
void WriteContigsFasta(const std::string& path,
                       const std::vector<ContigRecord>& contigs,
                       size_t line_width = 80);

}  // namespace ppa

#endif  // PPA_IO_FASTA_WRITER_H_
