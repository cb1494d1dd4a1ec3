// Before/after gate for the CSR graph core (DESIGN.md §15): a closeness
// pass — the mixed adjacent / friend-of-friend / BFS-fallback workload
// the SocialTrust update interval runs per rating pair — timed over the
// same 100k-node social network stored two ways:
//
//   before  ReferenceSocialGraph, the pre-CSR sorted vector-of-vectors
//           layout, driven by a kernel replicating the pre-CSR consumer
//           code probe-for-probe (separate adjacency search before the
//           mask fetch, set_intersection common friends);
//   after   SocialGraph's flat CSR arrays driven by the production
//           ClosenessModel.
//
// Both passes must produce bit-identical closeness sums (the refactor's
// contract), so the timing difference is pure representation: contiguous
// BFS rows, single-probe adjacency+mask, and merge-based common friends.
// The run also reports heap bytes per node and per half-edge for both
// layouts via memory_footprint().
//
// Flags:
//   --nodes <n>      network size              (default 100000)
//   --samples <n>    closeness pairs per pass  (default 24000)
//   --reps <n>       repetitions, min kept     (default 3)
//   --json <path>    also write results as JSON (the
//                    BENCH_csr_graph.json artifact)
//   --quick          4000 nodes, 4000 samples, 1 rep; skips the timing
//                    gate (the ctest smoke entry)
//   --seed <n>       workload seed             (default 42)
//
// Exit code is non-zero if the two passes disagree bitwise, if the CSR
// layout does not reduce adjacency bytes per half-edge, or (full runs
// only) if the CSR closeness throughput is below 1.5x the reference.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/closeness.hpp"
#include "graph/generators.hpp"
#include "graph/social_graph.hpp"
#include "stats/rng.hpp"
#include "support/reference_graph.hpp"
#include "util/cli.hpp"

namespace {

using st::core::ClosenessModel;
using st::graph::NodeId;
using st::graph::ReferenceSocialGraph;
using st::graph::Relationship;
using st::graph::SocialGraph;

constexpr std::size_t kMaxHops = 4;  // the paper's distance horizon

/// Eq. (10) mass table with the default weights, built exactly as
/// ClosenessModel builds its own (sort descending, decay by lambda^(l-1))
/// so the reference kernel reproduces its arithmetic bit-for-bit.
std::array<double, 64> build_mass_table(double lambda) {
  std::array<double, 64> table{};
  for (std::size_t mask = 0; mask < table.size(); ++mask) {
    std::vector<double> weights;
    for (std::size_t i = 0; i < st::graph::kRelationshipCount; ++i) {
      if (mask & (1U << i)) {
        weights.push_back(st::graph::default_relationship_weight(
            static_cast<Relationship>(i)));
      }
    }
    std::sort(weights.begin(), weights.end(), std::greater<>());
    double sum = 0.0;
    double decay = 1.0;
    for (double w : weights) {
      sum += decay * w;
      decay *= lambda;
    }
    table[mask] = sum;
  }
  return table;
}

/// Pre-CSR consumer code, probe-for-probe: adjacent() before the mask
/// fetch (two searches where the CSR consumer pays one), then the
/// interaction lookup.
double ref_adjacent_closeness(const ReferenceSocialGraph& g,
                              const std::array<double, 64>& mass, NodeId i,
                              NodeId j) {
  if (!g.adjacent(i, j)) return 0.0;
  const double total = g.total_interactions(i);
  if (total <= 0.0) return 0.0;
  return mass[g.relationship_mask(i, j)] * g.interaction(i, j) / total;
}

double ref_closeness(const ReferenceSocialGraph& g,
                     const std::array<double, 64>& mass, NodeId i, NodeId j) {
  if (i == j) return 0.0;
  if (g.adjacent(i, j)) return ref_adjacent_closeness(g, mass, i, j);
  const std::vector<NodeId> common = g.common_friends(i, j);
  if (!common.empty()) {
    double sum = 0.0;
    for (NodeId k : common) {
      sum += (ref_adjacent_closeness(g, mass, i, k) +
              ref_adjacent_closeness(g, mass, k, j)) /
             2.0;
    }
    return sum;
  }
  const auto path = g.shortest_path(i, j, kMaxHops);
  if (!path || path->size() < 2) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t step = 0; step + 1 < path->size(); ++step) {
    bottleneck = std::min(
        bottleneck,
        ref_adjacent_closeness(g, mass, (*path)[step], (*path)[step + 1]));
  }
  return std::isfinite(bottleneck) ? bottleneck : 0.0;
}

struct Pair {
  NodeId a;
  NodeId b;
};

double ms_between(std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  st::util::CliArgs args(argc, argv);
  const st::bench::CommonFlags common =
      st::bench::parse_common_flags(args, "1", nullptr, 3, 1);
  const bool quick = common.quick;
  const auto nodes =
      static_cast<std::size_t>(args.get_int("nodes", quick ? 4000 : 100000));
  const auto samples =
      static_cast<std::size_t>(args.get_int("samples", quick ? 4000 : 24000));
  const std::size_t reps = common.reps;
  const std::uint64_t seed = common.seed;

  // --- build the network once, store it both ways --------------------------
  st::stats::Rng rng(seed);
  SocialGraph csr = st::graph::watts_strogatz(nodes, 8, 0.1, rng);
  ReferenceSocialGraph ref(nodes);
  for (NodeId a = 0; a < csr.size(); ++a) {
    for (NodeId b : csr.neighbors(a)) {
      if (b > a) ref.add_relationship(a, b, Relationship::kFriendship);
    }
  }
  // Typed parallel edges on a third of the nodes so mask handling is
  // exercised, and interactions with every neighbour plus the occasional
  // stranger — the paper's "interactions need not follow edges".
  for (NodeId a = 0; a < csr.size(); ++a) {
    const auto nbrs = csr.neighbors(a);
    if (a % 3 == 0 && !nbrs.empty()) {
      const NodeId b = nbrs[0];
      csr.add_relationship(a, b, Relationship::kColleague);
      ref.add_relationship(a, b, Relationship::kColleague);
    }
  }
  for (NodeId a = 0; a < csr.size(); ++a) {
    // Re-read the row: the typed-edge loop above may have compacted.
    const auto nbrs = csr.neighbors(a);
    std::vector<NodeId> targets(nbrs.begin(), nbrs.end());
    for (NodeId b : targets) {
      const double count = 1.0 + static_cast<double>((a + b) % 4);
      csr.record_interaction(a, b, count);
      ref.record_interaction(a, b, count);
    }
    const auto stranger = static_cast<NodeId>(rng.index(nodes));
    if (stranger != a) {
      csr.record_interaction(a, stranger, 2.0);
      ref.record_interaction(a, stranger, 2.0);
    }
  }
  csr.begin_interval();  // pure CSR rows for the measured passes

  // --- sample the pair mix: 1/2 adjacent, 1/4 FoF, 1/4 arbitrary -----------
  std::vector<Pair> pairs;
  pairs.reserve(samples);
  const std::string mix = args.get_or("mix", "default");
  while (pairs.size() < samples) {
    const auto a = static_cast<NodeId>(rng.index(nodes));
    const auto nbrs = csr.neighbors(a);
    if (nbrs.empty()) continue;
    std::size_t kind = pairs.size() % 4;
    if (mix == "adjacent") kind = 0;
    if (mix == "fof") kind = 2;
    if (mix == "far") kind = 3;
    switch (kind) {
      case 0:
      case 1:
        pairs.push_back({a, nbrs[rng.index(nbrs.size())]});
        break;
      case 2: {
        const NodeId mid = nbrs[rng.index(nbrs.size())];
        const auto hop2 = csr.neighbors(mid);
        const NodeId b = hop2[rng.index(hop2.size())];
        if (b == a) continue;
        pairs.push_back({a, b});
        break;
      }
      default: {
        const auto b = static_cast<NodeId>(rng.index(nodes));
        if (b == a) continue;
        pairs.push_back({a, b});
        break;
      }
    }
  }

  // --- timed passes ---------------------------------------------------------
  const ClosenessModel model;  // weighted Eq. (10), lambda 0.8
  const auto mass = build_mass_table(model.lambda());

  double ref_ms = std::numeric_limits<double>::infinity();
  double csr_ms = std::numeric_limits<double>::infinity();
  double ref_sum = 0.0;
  double csr_sum = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    double sum = 0.0;
    for (const Pair& p : pairs) sum += ref_closeness(ref, mass, p.a, p.b);
    const auto t1 = std::chrono::steady_clock::now();
    ref_ms = std::min(ref_ms, ms_between(t0, t1));
    ref_sum = sum;

    const auto t2 = std::chrono::steady_clock::now();
    double sum2 = 0.0;
    for (const Pair& p : pairs) sum2 += model.closeness(csr, p.a, p.b, kMaxHops);
    const auto t3 = std::chrono::steady_clock::now();
    csr_ms = std::min(csr_ms, ms_between(t2, t3));
    csr_sum = sum2;
  }

  const bool identical = std::bit_cast<std::uint64_t>(ref_sum) ==
                         std::bit_cast<std::uint64_t>(csr_sum);
  const double speedup = ref_ms / csr_ms;
  const double ref_kpairs_s = static_cast<double>(samples) / ref_ms;
  const double csr_kpairs_s = static_cast<double>(samples) / csr_ms;

  // --- memory accounting ----------------------------------------------------
  const auto before = ref.memory_footprint();
  const auto after = csr.memory_footprint();
  const double half_edges = static_cast<double>(2 * csr.edge_count());
  const double n = static_cast<double>(nodes);
  const double before_bpn = static_cast<double>(before.total()) / n;
  const double after_bpn = static_cast<double>(after.total()) / n;
  const double before_bpe =
      static_cast<double>(before.adjacency_bytes) / half_edges;
  const double after_bpe =
      static_cast<double>(after.adjacency_bytes) / half_edges;

  std::cout << "bench_csr_graph: nodes=" << nodes << " edges="
            << csr.edge_count() << " samples=" << samples << " reps=" << reps
            << "\n"
            << "  closeness pass   before " << ref_ms << " ms ("
            << ref_kpairs_s << " kpairs/s)  after " << csr_ms << " ms ("
            << csr_kpairs_s << " kpairs/s)  speedup " << speedup << "x\n"
            << "  bytes/node       before " << before_bpn << "  after "
            << after_bpn << "\n"
            << "  adj bytes/edge   before " << before_bpe << "  after "
            << after_bpe << "\n"
            << "  bit-identical    " << (identical ? "yes" : "NO") << "\n";

  if (auto json = args.get("json")) {
    std::ofstream out(*json);
    out << "{\n"
        << "  \"bench\": \"bench_csr_graph\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"nodes\": " << nodes << ",\n"
        << "  \"edges\": " << csr.edge_count() << ",\n"
        << "  \"samples\": " << samples << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"max_hops\": " << kMaxHops << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"before_ms\": " << ref_ms << ",\n"
        << "  \"after_ms\": " << csr_ms << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"before_kpairs_per_s\": " << ref_kpairs_s << ",\n"
        << "  \"after_kpairs_per_s\": " << csr_kpairs_s << ",\n"
        << "  \"before_bytes_per_node\": " << before_bpn << ",\n"
        << "  \"after_bytes_per_node\": " << after_bpn << ",\n"
        << "  \"before_adj_bytes_per_half_edge\": " << before_bpe << ",\n"
        << "  \"after_adj_bytes_per_half_edge\": " << after_bpe << ",\n"
        << "  \"csr_rebuilds\": " << csr.rebuild_count() << "\n"
        << "}\n";
  }

  if (!identical) {
    std::cerr << "FAIL: CSR closeness pass is not bit-identical\n";
    return 1;
  }
  if (after_bpe >= before_bpe) {
    std::cerr << "FAIL: CSR layout did not reduce adjacency bytes/edge\n";
    return 1;
  }
  if (!quick && speedup < 1.5) {
    std::cerr << "FAIL: closeness speedup " << speedup << "x below 1.5x\n";
    return 1;
  }
  return 0;
}
