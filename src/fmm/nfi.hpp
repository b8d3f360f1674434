// nfi.hpp — the near-field interaction (NFI) communication model.
//
// Paper Section IV: for each particle x, every particle y within radius r
// induces one communication from the processor holding x to the processor
// holding y; its cost is the network hop distance (zero when co-located,
// still counted). The default neighborhood is the Chebyshev ball —
// "neighbors which share an edge/corner", at most 8 for r=1 in 2-D — with
// the Manhattan ball selectable for ANNS-style studies.
#pragma once

#include <vector>

#include "core/rank_pair.hpp"
#include "core/totals.hpp"
#include "fmm/occupancy.hpp"
#include "fmm/partition.hpp"
#include "sfc/point.hpp"
#include "topology/topology.hpp"

namespace sfc::fmm {

enum class NeighborNorm {
  kChebyshev,  // edge/corner neighbors (FMM near field)
  kManhattan,  // L1 ball (Xu–Tirthapura nearest-neighbor convention)
};

/// Sum/count of hop distances over all ordered near-field pairs.
/// `particles` must be the SFC-sorted list that `grid` and `part` were
/// built from.
///
/// Exactly net.fold(nfi_histogram(...).view()): events are aggregated into
/// a (src rank, dst rank) → count histogram (core/rank_pair.hpp) and
/// folded once by the topology's kernel, so the per-event work is a grid
/// probe plus a count increment — no distance lookup. Bit-identical to
/// nfi_totals_direct.
template <int D>
core::CommTotals nfi_totals(const std::vector<Point<D>>& particles,
                            const OccupancyGrid<D>& grid,
                            const Partition& part, const topo::Topology& net,
                            unsigned radius,
                            NeighborNorm norm = NeighborNorm::kChebyshev);

/// Topology-independent stage of nfi_totals: the (src rank, dst rank) →
/// count histogram of the near-field events, i.e. nfi_histogram_owners
/// with the owner table of `part`.
template <int D>
core::RankPairAccumulator nfi_histogram(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const Partition& part, unsigned radius,
    NeighborNorm norm = NeighborNorm::kChebyshev);

/// The one NFI enumeration kernel, over particles in *arbitrary* array
/// order: `owners[i]` names the rank holding particles[i] explicitly
/// instead of deriving it from a contiguous Partition of the array.
/// Produces the identical histogram for the identical particle/owner
/// assignment — the event multiset is a function of the particle
/// positions and owners only, not of the array order — which lets the
/// sweep engine enumerate one cell-sorted canonical copy of each sample
/// and re-own it per particle curve instead of materializing a sorted
/// copy per curve. The engine caches one of these per (sample, particle
/// order, p, radius, norm) and folds it against every topology and
/// processor order that shares those inputs.
///
/// The particles are the items of core::build_rank_pairs: particle i
/// is sent from owners[i] and pushes the owners of its window
/// neighbors, so the histogram comes back sealed and key-ordered, with
/// no staging buffer and no compaction sort.
template <int D>
core::RankPairAccumulator nfi_histogram_owners(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const std::vector<topo::Rank>& owners, topo::Rank procs, unsigned radius,
    NeighborNorm norm = NeighborNorm::kChebyshev);

/// Reference implementation: one virtual distance() dispatch per event.
/// O(events) distance lookups instead of O(p²); the equivalence tests
/// pin nfi_totals to this path bit-for-bit.
template <int D>
core::CommTotals nfi_totals_direct(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const Partition& part, const topo::Topology& net, unsigned radius,
    NeighborNorm norm = NeighborNorm::kChebyshev);

extern template core::CommTotals nfi_totals<2>(const std::vector<Point<2>>&,
                                               const OccupancyGrid<2>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm);
extern template core::CommTotals nfi_totals<3>(const std::vector<Point<3>>&,
                                               const OccupancyGrid<3>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm);
extern template core::CommTotals nfi_totals_direct<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&, const Partition&,
    const topo::Topology&, unsigned, NeighborNorm);
extern template core::CommTotals nfi_totals_direct<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&, const Partition&,
    const topo::Topology&, unsigned, NeighborNorm);
extern template core::RankPairAccumulator nfi_histogram<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&, const Partition&,
    unsigned, NeighborNorm);
extern template core::RankPairAccumulator nfi_histogram<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&, const Partition&,
    unsigned, NeighborNorm);
extern template core::RankPairAccumulator nfi_histogram_owners<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm);
extern template core::RankPairAccumulator nfi_histogram_owners<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm);

}  // namespace sfc::fmm
