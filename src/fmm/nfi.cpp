#include "fmm/nfi.hpp"

#include <cstdint>
#include <utility>

#include "core/rank_pair.hpp"
#include "fmm/nfi_window.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace sfc::fmm {
namespace {

/// Reference path: accumulate the near-field communications of every
/// particle with one virtual distance() dispatch per event. Kept as the
/// oracle the aggregated path must bit-match (and for topologies/grids
/// the fast kernel does not cover).
template <int D>
core::CommTotals nfi_direct(const std::vector<Point<D>>& particles,
                            const OccupancyGrid<D>& grid,
                            const Partition& part, const topo::Topology& net,
                            unsigned radius, NeighborNorm norm) {
  core::CommTotals totals;
  const std::int64_t side = 1ll << grid.level();
  const std::int64_t r = radius;

  Point<D> q{};
  std::int64_t off[4] = {};  // D <= 4 (static_assert in Point)
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const Point<D>& x = particles[i];
    const topo::Rank px = part.proc_of(i);
    // Odometer over the (2r+1)^D window around x.
    for (int d = 0; d < D; ++d) off[d] = -r;
    for (;;) {
      bool zero = true;
      bool in = true;
      std::int64_t l1 = 0;
      for (int d = 0; d < D; ++d) {
        if (off[d] != 0) zero = false;
        l1 += off[d] < 0 ? -off[d] : off[d];
        const std::int64_t v = static_cast<std::int64_t>(x[d]) + off[d];
        if (v < 0 || v >= side) {
          in = false;
          break;
        }
        q[d] = static_cast<std::uint32_t>(v);
      }
      const bool within =
          norm == NeighborNorm::kChebyshev || l1 <= r;  // window is the L∞ ball
      if (!zero && in && within) {
        const std::int32_t j = grid.particle_at(q);
        if (j != OccupancyGrid<D>::kEmpty) {
          totals.hops +=
              net.distance(px, part.proc_of(static_cast<std::size_t>(j)));
          ++totals.count;
        }
      }
      int d = 0;
      while (d < D && off[d] == r) off[d++] = -r;
      if (d == D) break;
      ++off[d];
    }
  }
  return totals;
}

/// The shared window visitor (fmm/nfi_window.hpp) takes the norm as a
/// bool so the header need not depend on this file's enum; adapt here.
template <int D, typename Fn>
inline void visit_neighbors(const OccupancyGrid<D>& grid,
                            const std::int32_t* cells, const Point<D>& x,
                            std::int64_t r, NeighborNorm norm, Fn&& fn) {
  visit_window_neighbors<D>(grid, cells, x, r,
                            norm == NeighborNorm::kChebyshev,
                            std::forward<Fn>(fn));
}

/// 2-D dense-grid kernel exploiting pair symmetry: every unordered
/// particle pair within the ball produces the two directed events
/// (own[i], own[j]) and (own[j], own[i]), so scanning only the
/// lexicographically-positive half of each window (rows above, plus the
/// right half of the center row) and recording both events per occupied
/// neighbor halves the probed cells. Each unordered pair is seen by
/// exactly one of its endpoints, so the kernel still enumerates the exact
/// event multiset of the reference path — and integer sums commute, so
/// totals are bit-equal.
template <typename Push>
inline void halfwindow_dense2(const std::int32_t* cells, unsigned level,
                              const Point<2>& x, std::int64_t r,
                              NeighborNorm norm, Push&& push) {
  const std::int64_t side = std::int64_t{1} << level;
  const std::int64_t x0 = x[0];
  const std::int64_t y0 = x[1];
  // Center row: dx in [1, r] (identical under both norms).
  {
    const std::int64_t xhi = x0 + r < side - 1 ? x0 + r : side - 1;
    const std::int32_t* row = cells + (static_cast<std::uint64_t>(y0) << level);
    for (std::int64_t xx = x0 + 1; xx <= xhi; ++xx) {
      const std::int32_t j = row[xx];
      if (j != OccupancyGrid<2>::kEmpty) push(j);
    }
  }
  // Rows above: dy in [1, r], x-extent clamped to the norm ball.
  const std::int64_t yhi = y0 + r < side - 1 ? y0 + r : side - 1;
  for (std::int64_t yy = y0 + 1; yy <= yhi; ++yy) {
    const std::int64_t budget =
        norm == NeighborNorm::kChebyshev ? r : r - (yy - y0);
    const std::int64_t xlo = x0 - budget > 0 ? x0 - budget : 0;
    const std::int64_t xhi = x0 + budget < side - 1 ? x0 + budget : side - 1;
    const std::int32_t* row = cells + (static_cast<std::uint64_t>(yy) << level);
    for (std::int64_t xx = xlo; xx <= xhi; ++xx) {
      const std::int32_t j = row[xx];
      if (j != OccupancyGrid<2>::kEmpty) push(j);
    }
  }
}

/// Hand `body` the event scan of the NFI enumeration kernel:
/// body(scan, weight), where scan(i, push) calls push(j) for every
/// near-field neighbor j of particle i and each (i, j) stands for
/// `weight` directed events. The emitted event multiset is a function of
/// the particle positions only (the half-window orientation is spatial,
/// not positional), so any array order of the same particles gives the
/// same events.
template <int D, typename Body>
void with_event_scan(const std::vector<Point<D>>& particles,
                     const OccupancyGrid<D>& grid, unsigned radius,
                     NeighborNorm norm, Body&& body) {
  const std::int32_t* cells = grid.dense_cells();
  const std::int64_t r = radius;

  if constexpr (D == 2) {
    if (cells != nullptr) {
      const unsigned level = grid.level();
      // SIMD half-window compaction: one scratch buffer sized to the
      // largest half-window, reused across every particle.
      // r == 1 windows hold at most 4 cells — too short to fill vector
      // lanes — so the per-cell scan stays.
      decltype(util::simd::kernels().nfi_halfwindow2) collect = nullptr;
      std::vector<std::int32_t> scratch;
      if (r >= 2) {
        collect = util::simd::kernels().nfi_halfwindow2;
        if (collect != nullptr) {
          scratch.resize(static_cast<std::size_t>(2 * r * r + 2 * r + 7));
        }
      }
      auto scan = [&](std::size_t i, auto&& push) {
        const Point<2>& p = particles[i];
        if (collect != nullptr) {
          const std::size_t m =
              collect(cells, level, p[0], p[1], static_cast<std::uint32_t>(r),
                      norm == NeighborNorm::kChebyshev, scratch.data());
          for (std::size_t k = 0; k < m; ++k) {
            push(static_cast<std::size_t>(scratch[k]));
          }
        } else {
          halfwindow_dense2(cells, level, p, r, norm, [&](std::int32_t j) {
            push(static_cast<std::size_t>(j));
          });
        }
      };
      // Hop distance is symmetric (the interconnects are undirected; the
      // metric-property tests assert it), so the directed events
      // (src, dst) and (dst, src) of each half-window pair fold to the
      // same 2·d(src, dst) as a single count-2 entry on src's row.
      body(scan, std::uint64_t{2});
      return;
    }
  }
  auto scan = [&](std::size_t i, auto&& push) {
    visit_neighbors<D>(grid, cells, particles[i], r, norm, push);
  };
  body(scan, std::uint64_t{1});
}

}  // namespace

template <int D>
core::RankPairAccumulator nfi_histogram_owners(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const std::vector<topo::Rank>& owners, topo::Rank procs, unsigned radius,
    NeighborNorm norm) {
  const obs::Span span("nfi/enumerate");
  const topo::Rank* own = owners.data();
  core::RankPairAccumulator acc(procs);
  with_event_scan<D>(particles, grid, radius, norm,
                     [&](auto&& scan, std::uint64_t weight) {
                       acc = core::build_rank_pairs(
                           procs, own, particles.size(),
                           [&](std::size_t i, auto&& push) {
                             scan(i, [&](std::size_t j) { push(own[j]); });
                           },
                           weight);
                     });
  return acc;
}

template <int D>
core::RankPairAccumulator nfi_histogram(const std::vector<Point<D>>& particles,
                                        const OccupancyGrid<D>& grid,
                                        const Partition& part, unsigned radius,
                                        NeighborNorm norm) {
  return nfi_histogram_owners<D>(particles, grid, part.owner_table(),
                                 part.processors(), radius, norm);
}

template <int D>
core::CommTotals nfi_totals(const std::vector<Point<D>>& particles,
                            const OccupancyGrid<D>& grid,
                            const Partition& part, const topo::Topology& net,
                            unsigned radius, NeighborNorm norm) {
  return net.fold(nfi_histogram<D>(particles, grid, part, radius, norm).view());
}

template <int D>
core::CommTotals nfi_totals_direct(const std::vector<Point<D>>& particles,
                                   const OccupancyGrid<D>& grid,
                                   const Partition& part,
                                   const topo::Topology& net, unsigned radius,
                                   NeighborNorm norm) {
  return nfi_direct<D>(particles, grid, part, net, radius, norm);
}

template core::CommTotals nfi_totals<2>(const std::vector<Point<2>>&,
                                        const OccupancyGrid<2>&,
                                        const Partition&,
                                        const topo::Topology&, unsigned,
                                        NeighborNorm);
template core::CommTotals nfi_totals<3>(const std::vector<Point<3>>&,
                                        const OccupancyGrid<3>&,
                                        const Partition&,
                                        const topo::Topology&, unsigned,
                                        NeighborNorm);
template core::CommTotals nfi_totals_direct<2>(const std::vector<Point<2>>&,
                                               const OccupancyGrid<2>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm);
template core::CommTotals nfi_totals_direct<3>(const std::vector<Point<3>>&,
                                               const OccupancyGrid<3>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm);
template core::RankPairAccumulator nfi_histogram<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&, const Partition&,
    unsigned, NeighborNorm);
template core::RankPairAccumulator nfi_histogram<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&, const Partition&,
    unsigned, NeighborNorm);
template core::RankPairAccumulator nfi_histogram_owners<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm);
template core::RankPairAccumulator nfi_histogram_owners<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm);

}  // namespace sfc::fmm
