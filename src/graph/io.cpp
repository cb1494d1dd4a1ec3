#include "graph/io.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace st::graph {

std::string relationship_name(Relationship r) {
  switch (r) {
    case Relationship::kFriendship:
      return "friendship";
    case Relationship::kColleague:
      return "colleague";
    case Relationship::kClassmate:
      return "classmate";
    case Relationship::kNeighbor:
      return "neighbor";
    case Relationship::kKinship:
      return "kinship";
    case Relationship::kBusiness:
      return "business";
  }
  return "unknown";
}

void write_dot(std::ostream& out, const SocialGraph& graph,
               std::span<const NodeId> highlight) {
  std::unordered_set<NodeId> marked(highlight.begin(), highlight.end());
  out << "graph social {\n  node [shape=circle, fontsize=9];\n";
  for (NodeId v = 0; v < graph.size(); ++v) {
    out << "  n" << v;
    if (marked.count(v)) {
      out << " [style=filled, fillcolor=red]";
    }
    out << ";\n";
  }
  for (NodeId a = 0; a < graph.size(); ++a) {
    for (NodeId b : graph.neighbors(a)) {
      if (b <= a) continue;  // each undirected edge once
      out << "  n" << a << " -- n" << b << " [label=\""
          << graph.relationship_count(a, b) << "\"];\n";
    }
  }
  out << "}\n";
}

void write_edge_list(std::ostream& out, const SocialGraph& graph) {
  out << "socialgraph " << graph.size() << "\n";
  for (NodeId a = 0; a < graph.size(); ++a) {
    for (NodeId b : graph.neighbors(a)) {
      if (b <= a) continue;
      unsigned mask = 0;
      for (Relationship r : graph.relationships(a, b)) {
        mask |= 1U << static_cast<unsigned>(r);
      }
      out << "e " << a << " " << b << " " << mask << "\n";
    }
  }
  for (NodeId from = 0; from < graph.size(); ++from) {
    // One CSR row walk per node (targets are ascending, matching the old
    // O(n^2) probe loop's output order); zero-count tombstones skipped.
    const auto row = graph.interactions(from);
    for (std::size_t k = 0; k < row.targets.size(); ++k) {
      if (row.counts[k] > 0.0) {
        out << "i " << from << " " << row.targets[k] << " " << row.counts[k]
            << "\n";
      }
    }
  }
}

namespace {

/// Rejects a well-formed record that write_edge_list never writes, naming
/// it as it was read.
template <typename Value>
[[noreturn]] void throw_bad_record(char kind, NodeId a, NodeId b,
                                   Value value) {
  std::ostringstream record;
  record << kind << ' ' << a << ' ' << b << ' ' << value;
  throw std::runtime_error("read_edge_list: invalid record '" +
                           record.str() + "'");
}

}  // namespace

SocialGraph read_edge_list(std::istream& in) {
  std::string tag;
  std::size_t node_count = 0;
  if (!(in >> tag >> node_count) || tag != "socialgraph") {
    throw std::runtime_error("read_edge_list: missing socialgraph header");
  }
  SocialGraph graph(node_count);
  std::string kind;
  while (in >> kind) {
    if (kind == "e") {
      NodeId a = 0, b = 0;
      unsigned mask = 0;
      if (!(in >> a >> b >> mask)) {
        throw std::runtime_error("read_edge_list: malformed edge line");
      }
      // write_edge_list never writes a self-edge, an empty type set or a
      // type bit past kRelationshipCount; add_relationship would drop
      // each of them without a trace.
      if (a == b || mask == 0 || mask >= (1U << kRelationshipCount)) {
        throw_bad_record('e', a, b, mask);
      }
      for (std::size_t r = 0; r < kRelationshipCount; ++r) {
        if (mask & (1U << r)) {
          graph.add_relationship(a, b, static_cast<Relationship>(r));
        }
      }
    } else if (kind == "i") {
      NodeId from = 0, to = 0;
      double count = 0.0;
      if (!(in >> from >> to >> count)) {
        throw std::runtime_error(
            "read_edge_list: malformed interaction line");
      }
      // Only positive counts between distinct nodes are ever written;
      // record_interaction would drop anything else silently.
      if (from == to || !std::isfinite(count) || count <= 0.0) {
        throw_bad_record('i', from, to, count);
      }
      graph.record_interaction(from, to, count);
    } else {
      throw std::runtime_error("read_edge_list: unknown record '" + kind +
                               "'");
    }
  }
  graph.begin_interval();  // hand out pure CSR rows, no overlay
  return graph;
}

}  // namespace st::graph
