#include "dbg/graph_io.h"

#include <charconv>
#include <sstream>

#include "util/logging.h"

namespace ppa {

namespace {

void AppendEdges(const AsmNode& node, std::string* out) {
  for (const BiEdge& e : node.edges) {
    *out += '\t';
    *out += std::to_string(e.to);
    *out += ':';
    *out += std::to_string(static_cast<int>(e.my_end));
    *out += ':';
    *out += std::to_string(static_cast<int>(e.to_end));
    *out += ':';
    *out += std::to_string(e.coverage);
  }
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (start <= line.size()) {
    size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  return fields;
}

BiEdge ParseEdge(const std::string& field) {
  BiEdge e;
  std::istringstream ss(field);
  std::string part;
  PPA_CHECK(std::getline(ss, part, ':'));
  e.to = std::stoull(part);
  PPA_CHECK(std::getline(ss, part, ':'));
  e.my_end = static_cast<NodeEnd>(std::stoi(part));
  PPA_CHECK(std::getline(ss, part, ':'));
  e.to_end = static_cast<NodeEnd>(std::stoi(part));
  PPA_CHECK(std::getline(ss, part, ':'));
  e.coverage = static_cast<uint32_t>(std::stoul(part));
  return e;
}

}  // namespace

std::string EncodeNode(const AsmNode& node) {
  std::string out;
  if (node.kind == NodeKind::kKmer) {
    out += "K\t";
    out += std::to_string(node.id);
    out += '\t';
    out += std::to_string(static_cast<int>(node.k));
    out += '\t';
    out += std::to_string(node.coverage);
  } else {
    out += "C\t";
    out += std::to_string(node.id);
    out += '\t';
    out += std::to_string(node.coverage);
    out += '\t';
    out += node.circular ? '1' : '0';
    out += '\t';
    out += node.seq.ToString();
  }
  AppendEdges(node, &out);
  return out;
}

AsmNode DecodeNode(const std::string& line) {
  std::vector<std::string> fields = SplitTabs(line);
  PPA_CHECK(fields.size() >= 2);
  AsmNode node;
  size_t edge_start;
  if (fields[0] == "K") {
    PPA_CHECK(fields.size() >= 4);
    node.kind = NodeKind::kKmer;
    node.id = std::stoull(fields[1]);
    node.k = static_cast<uint8_t>(std::stoi(fields[2]));
    node.coverage = static_cast<uint32_t>(std::stoul(fields[3]));
    edge_start = 4;
  } else {
    PPA_CHECK(fields[0] == "C" && fields.size() >= 5);
    node.kind = NodeKind::kContig;
    node.id = std::stoull(fields[1]);
    node.coverage = static_cast<uint32_t>(std::stoul(fields[2]));
    node.circular = (fields[3] == "1");
    node.seq = PackedSequence::FromString(fields[4]);
    edge_start = 5;
  }
  for (size_t i = edge_start; i < fields.size(); ++i) {
    if (!fields[i].empty()) node.edges.push_back(ParseEdge(fields[i]));
  }
  return node;
}

void SaveGraph(const AssemblyGraph& graph, const TextStore& store) {
  for (uint32_t p = 0; p < graph.num_workers(); ++p) {
    std::vector<std::string> lines;
    for (const AsmNode& node : graph.partition(p).vertices) {
      if (node.removed) continue;
      lines.push_back(EncodeNode(node));
    }
    store.WritePart(p, lines);
  }
}

AssemblyGraph LoadGraph(const TextStore& store, uint32_t num_workers) {
  AssemblyGraph graph(num_workers);
  for (uint32_t part : store.ListParts()) {
    for (const std::string& line : store.ReadPart(part)) {
      if (line.empty()) continue;
      graph.Add(DecodeNode(line));
    }
  }
  return graph;
}

void SaveContigs(const std::vector<ContigRecord>& contigs,
                 const TextStore& store, uint32_t num_parts) {
  PPA_CHECK(num_parts >= 1);
  std::vector<std::vector<std::string>> parts(num_parts);
  for (size_t i = 0; i < contigs.size(); ++i) {
    const ContigRecord& c = contigs[i];
    std::string header = ">" + std::to_string(c.id) + " " +
                         std::to_string(c.coverage) + " " +
                         (c.circular ? "1" : "0");
    auto& lines = parts[i % num_parts];
    lines.push_back(header);
    lines.push_back(c.seq.ToString());
  }
  for (uint32_t p = 0; p < num_parts; ++p) {
    store.WritePart(p, parts[p]);
  }
}

std::vector<ContigRecord> LoadContigs(const TextStore& store) {
  std::vector<ContigRecord> contigs;
  for (uint32_t part : store.ListParts()) {
    std::vector<std::string> lines = store.ReadPart(part);
    for (size_t i = 0; i + 1 < lines.size(); i += 2) {
      PPA_CHECK(!lines[i].empty() && lines[i][0] == '>');
      std::istringstream ss(lines[i].substr(1));
      ContigRecord rec;
      int circ = 0;
      ss >> rec.id >> rec.coverage >> circ;
      rec.circular = (circ != 0);
      rec.seq = PackedSequence::FromString(lines[i + 1]);
      contigs.push_back(std::move(rec));
    }
  }
  return contigs;
}

}  // namespace ppa
