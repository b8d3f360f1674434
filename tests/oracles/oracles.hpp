// oracles.hpp — brute-force reference implementations for the
// differential suites.
//
// Every function here is written straight from the paper's definitions
// with no shared machinery from the optimized paths: the NFI oracle is
// the O(n²) pairwise double loop of Definition 1, the FFI oracle
// rebuilds the occupied-cell hierarchy with std::map and re-derives the
// interaction list from its geometric definition (children of the
// parent's neighbors, non-adjacent), and the topology oracle assembles
// each interconnect as an explicit edge list for BFS. Slow on purpose —
// the property suites run them on small instances only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/totals.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "sfc/point.hpp"
#include "testing/domain.hpp"
#include "topology/graph.hpp"
#include "topology/topology.hpp"

namespace sfc::oracle {

/// O(n²) near-field totals straight from the definition: every ordered
/// pair (i, j), i != j, with ||x_i - x_j|| <= radius under `norm`
/// contributes one communication of cost d(owner(i), owner(j)).
/// `sorted` must be the SFC-sorted particle list `part` chunks.
template <int D>
core::CommTotals nfi_pairwise(const std::vector<Point<D>>& sorted,
                              const fmm::Partition& part,
                              const topo::Topology& net, unsigned radius,
                              fmm::NeighborNorm norm);

/// (src rank, dst rank) -> communication count.
using PairCounts = std::map<std::pair<topo::Rank, topo::Rank>, std::uint64_t>;

/// nfi_pairwise's events aggregated per rank pair, under an explicit
/// owner table: `owners[i]` holds `pts[i]`, and the array order is
/// irrelevant. With `half_window` the counts take the 2-D dense kernel's
/// representation: each unordered pair once, on the row of the endpoint
/// that sees the other in its positive half-plane (a row above, or the
/// same row to the right), with count 2. The two representations fold to
/// the same totals on any undirected interconnect.
template <int D>
PairCounts nfi_pair_counts(const std::vector<Point<D>>& pts,
                           const std::vector<topo::Rank>& owners,
                           unsigned radius, fmm::NeighborNorm norm,
                           bool half_window);

/// Definitional far-field totals: occupied-cell sets per level built with
/// ordered maps, lowest-sorted-particle ownership, interpolation edges
/// child->parent, anterpolation the mirror, and interaction lists
/// re-derived from the geometric definition. `level` is the finest
/// refinement level of the domain.
template <int D>
fmm::FfiTotals ffi_definitional(const std::vector<Point<D>>& sorted,
                                unsigned level, const fmm::Partition& part,
                                const topo::Topology& net);

/// Hop distance -> number of communications at that distance.
using HopDistribution = std::map<std::uint64_t, std::uint64_t>;

/// Per-event hop distribution of nfi_pairwise's communication set: one
/// net.distance() call per ordered pair.
template <int D>
HopDistribution nfi_hop_distribution(const std::vector<Point<D>>& sorted,
                                     const fmm::Partition& part,
                                     const topo::Topology& net,
                                     unsigned radius, fmm::NeighborNorm norm);

/// Per-event hop distribution of ffi_definitional's communication set,
/// all three families (anterpolation events priced in their own
/// parent -> child direction).
template <int D>
HopDistribution ffi_hop_distribution(const std::vector<Point<D>>& sorted,
                                     unsigned level,
                                     const fmm::Partition& part,
                                     const topo::Topology& net);

enum class FfiFamily { kInterpolation, kAnterpolation, kInteraction };

/// One far-field communication: its family, the level of the cells it
/// serves (the child's level for interpolation and anterpolation), and
/// its (src rank, dst rank).
struct FfiEvent {
  FfiFamily family;
  unsigned level;
  topo::Rank src;
  topo::Rank dst;
};

/// Every event of ffi_definitional's communication set, all three
/// families, one entry per event.
template <int D>
std::vector<FfiEvent> ffi_event_pairs(const std::vector<Point<D>>& sorted,
                                      unsigned level,
                                      const fmm::Partition& part);

/// Explicit-graph twin of a closed-form topology case: rank r occupies
/// the same physical position as in `make_topology`, so every BFS hop
/// distance must equal the closed form exactly.
topo::GraphTopology oracle_graph(const pbt::TopoCase& spec);

/// Both halves of a frozen-assignment ACD snapshot, as the dynamics
/// differential needs them after every move batch.
struct FrozenTotals {
  core::CommTotals nfi;
  fmm::FfiTotals ffi;
};

/// Full-recompute reference for the incremental engine: NFI and FFI
/// totals of `positions` under the particle→rank assignment of `part`,
/// via nfi_pairwise and ffi_definitional. `positions` is whatever order
/// the engine froze (cell ownership is lowest array index, matching the
/// engine's lowest-sorted-particle rule); it is NOT re-sorted here —
/// that is the point: the oracle prices the frozen assignment.
template <int D>
FrozenTotals frozen_totals(const std::vector<Point<D>>& positions,
                           unsigned level, const fmm::Partition& part,
                           const topo::Topology& net, unsigned radius,
                           fmm::NeighborNorm norm);

extern template PairCounts nfi_pair_counts<2>(const std::vector<Point<2>>&,
                                             const std::vector<topo::Rank>&,
                                             unsigned, fmm::NeighborNorm, bool);
extern template PairCounts nfi_pair_counts<3>(const std::vector<Point<3>>&,
                                             const std::vector<topo::Rank>&,
                                             unsigned, fmm::NeighborNorm, bool);
extern template core::CommTotals nfi_pairwise<2>(const std::vector<Point<2>>&,
                                                 const fmm::Partition&,
                                                 const topo::Topology&,
                                                 unsigned, fmm::NeighborNorm);
extern template core::CommTotals nfi_pairwise<3>(const std::vector<Point<3>>&,
                                                 const fmm::Partition&,
                                                 const topo::Topology&,
                                                 unsigned, fmm::NeighborNorm);
extern template fmm::FfiTotals ffi_definitional<2>(
    const std::vector<Point<2>>&, unsigned, const fmm::Partition&,
    const topo::Topology&);
extern template fmm::FfiTotals ffi_definitional<3>(
    const std::vector<Point<3>>&, unsigned, const fmm::Partition&,
    const topo::Topology&);
extern template HopDistribution nfi_hop_distribution<2>(
    const std::vector<Point<2>>&, const fmm::Partition&, const topo::Topology&,
    unsigned, fmm::NeighborNorm);
extern template HopDistribution ffi_hop_distribution<2>(
    const std::vector<Point<2>>&, unsigned, const fmm::Partition&,
    const topo::Topology&);
extern template std::vector<FfiEvent> ffi_event_pairs<2>(
    const std::vector<Point<2>>&, unsigned, const fmm::Partition&);
extern template FrozenTotals frozen_totals<2>(const std::vector<Point<2>>&,
                                              unsigned, const fmm::Partition&,
                                              const topo::Topology&, unsigned,
                                              fmm::NeighborNorm);
extern template FrozenTotals frozen_totals<3>(const std::vector<Point<3>>&,
                                              unsigned, const fmm::Partition&,
                                              const topo::Topology&, unsigned,
                                              fmm::NeighborNorm);

}  // namespace sfc::oracle
