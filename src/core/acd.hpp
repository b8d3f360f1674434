// acd.hpp — the Average Communicated Distance pipeline (paper Section IV).
//
// Given a particle set, the pipeline is:
//   1. order the particles with the particle-order SFC,
//   2. cut the order into p consecutive chunks (fmm::Partition),
//   3. rank the processors with the processor-order SFC (mesh/torus only),
//   4. ship chunk i to processor i,
// after which the NFI and FFI models count every pairwise communication and
// its hop distance. AcdInstance holds the p-independent preprocessing
// (sorted particles, occupancy grid, occupied-cell tree) so one instance
// can be evaluated against many topologies and processor counts — exactly
// what the paper's Figure 6/7 sweeps need.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/totals.hpp"
#include "distribution/distribution.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/occupancy.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "topology/factory.hpp"
#include "topology/topology.hpp"

namespace sfc::core {

/// A fully specified experimental configuration (one cell of a paper table).
template <int D>
struct Scenario {
  std::size_t particles = 0;
  unsigned level = 0;  ///< spatial resolution: 2^level per dimension
  topo::Rank procs = 1;
  CurveKind particle_curve = CurveKind::kHilbert;
  CurveKind processor_curve = CurveKind::kHilbert;
  topo::TopologyKind topology = topo::TopologyKind::kTorus;
  dist::DistKind distribution = dist::DistKind::kUniform;
  unsigned radius = 1;  ///< near-field Chebyshev radius
  std::uint64_t seed = 1;
};

using Scenario2 = Scenario<2>;
using Scenario3 = Scenario<3>;

struct AcdResult {
  CommTotals nfi;
  fmm::FfiTotals ffi;

  double nfi_acd() const noexcept { return nfi.acd(); }
  double ffi_acd() const noexcept { return ffi.total().acd(); }
};

/// Preprocessed particle-side state: particles sorted by the particle-order
/// SFC, plus the occupancy grid (NFI) and occupied-cell tree (FFI).
/// Everything here is independent of the processor count and topology.
template <int D>
class AcdInstance {
 public:
  AcdInstance(std::vector<Point<D>> particles, unsigned level,
              const Curve<D>& particle_curve);

  /// Adopt an already curve-sorted particle sequence (the exact order the
  /// sorting constructor would produce). The sweep engine builds the
  /// sorted sequence by scattering through a cached rank table, which
  /// skips the per-curve key computation and comparison sort.
  static AcdInstance from_sorted(std::vector<Point<D>> sorted,
                                 unsigned level) {
    return AcdInstance(FromSortedTag{}, std::move(sorted), level);
  }

  unsigned level() const noexcept { return level_; }
  const std::vector<Point<D>>& particles() const noexcept {
    return particles_;
  }
  const fmm::OccupancyGrid<D>& grid() const noexcept { return grid_; }
  const fmm::CellTree<D>& tree() const noexcept { return tree_; }

  /// Bytes held by the preprocessed state (sweep-cache accounting).
  std::size_t memory_bytes() const noexcept {
    return particles_.capacity() * sizeof(Point<D>) + grid_.memory_bytes() +
           tree_.memory_bytes();
  }

  /// Near-field totals for a processor count/topology choice.
  CommTotals nfi(const fmm::Partition& part, const topo::Topology& net,
                 unsigned radius,
                 fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev) const;

  /// Far-field totals for a processor count/topology choice.
  fmm::FfiTotals ffi(const fmm::Partition& part,
                     const topo::Topology& net) const;

 private:
  struct FromSortedTag {};
  AcdInstance(FromSortedTag, std::vector<Point<D>> sorted, unsigned level)
      : level_(level),
        particles_(std::move(sorted)),
        grid_(particles_, level),
        tree_(particles_, level) {}

  unsigned level_;
  std::vector<Point<D>> particles_;
  fmm::OccupancyGrid<D> grid_;
  fmm::CellTree<D> tree_;
};

/// Sort particles by their position on the given curve (batched encode +
/// stable radix argsort). This is the exact order AcdInstance's sorting
/// constructor produces; the incremental dynamics engine calls it when a
/// re-partition triggers, so a rebuilt state matches a freshly ordered
/// instance bit-for-bit.
template <int D>
std::vector<Point<D>> sort_by_curve(std::vector<Point<D>> particles,
                                    unsigned level, const Curve<D>& curve);

/// One-shot evaluation of a scenario: sample, order, distribute, count.
template <int D>
AcdResult compute_acd(const Scenario<D>& scenario);

extern template class AcdInstance<2>;
extern template class AcdInstance<3>;
extern template std::vector<Point<2>> sort_by_curve<2>(std::vector<Point<2>>,
                                                       unsigned,
                                                       const Curve<2>&);
extern template std::vector<Point<3>> sort_by_curve<3>(std::vector<Point<3>>,
                                                       unsigned,
                                                       const Curve<3>&);
extern template AcdResult compute_acd<2>(const Scenario<2>&);
extern template AcdResult compute_acd<3>(const Scenario<3>&);

}  // namespace sfc::core
