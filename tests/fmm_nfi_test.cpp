// Near-field interaction model tests with hand-computed communication
// totals on tiny instances.
#include "fmm/nfi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "topology/linear.hpp"
#include "util/simd.hpp"

namespace sfc::fmm {
namespace {

core::CommTotals run_nfi(const std::vector<Point2>& particles, unsigned level,
                         topo::Rank procs, unsigned radius,
                         NeighborNorm norm = NeighborNorm::kChebyshev) {
  const OccupancyGrid<2> grid(particles, level);
  const Partition part(particles.size(), procs);
  const topo::BusTopology bus(procs);
  return nfi_totals<2>(particles, grid, part, bus, radius, norm);
}

TEST(Nfi, TwoAdjacentParticlesTwoProcessors) {
  // Ordered pairs (0 -> 1) and (1 -> 0), one bus hop each.
  const auto totals = run_nfi({make_point(0, 0), make_point(1, 0)}, 2, 2, 1);
  EXPECT_EQ(totals.count, 2u);
  EXPECT_EQ(totals.hops, 2u);
  EXPECT_DOUBLE_EQ(totals.acd(), 1.0);
}

TEST(Nfi, RadiusGatesInteraction) {
  const std::vector<Point2> particles = {make_point(0, 0), make_point(2, 0)};
  EXPECT_EQ(run_nfi(particles, 2, 2, 1).count, 0u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 2).count, 2u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 3).count, 2u);
}

TEST(Nfi, SingleProcessorZeroHopsButCounted) {
  // Paper: "possibly zero" distances are still communications.
  const auto totals = run_nfi({make_point(0, 0), make_point(1, 1)}, 2, 1, 1);
  EXPECT_EQ(totals.count, 2u);
  EXPECT_EQ(totals.hops, 0u);
  EXPECT_DOUBLE_EQ(totals.acd(), 0.0);
}

TEST(Nfi, ChebyshevCountsDiagonalManhattanDoesNot) {
  const std::vector<Point2> particles = {make_point(0, 0), make_point(1, 1)};
  EXPECT_EQ(run_nfi(particles, 2, 2, 1, NeighborNorm::kChebyshev).count, 2u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 1, NeighborNorm::kManhattan).count, 0u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 2, NeighborNorm::kManhattan).count, 2u);
}

TEST(Nfi, ThreeParticleClusterHandComputed) {
  // Particles 0:(0,0), 1:(1,0), 2:(0,1) on 3 bus processors.
  // All three pairs are Chebyshev-adjacent; bus hops: (0,1)=1 (0,2)=2
  // (1,2)=1, each counted in both directions.
  const auto totals = run_nfi(
      {make_point(0, 0), make_point(1, 0), make_point(0, 1)}, 2, 3, 1);
  EXPECT_EQ(totals.count, 6u);
  EXPECT_EQ(totals.hops, 8u);
  EXPECT_DOUBLE_EQ(totals.acd(), 8.0 / 6.0);
}

TEST(Nfi, IsolatedParticleContributesNothing) {
  const auto totals = run_nfi(
      {make_point(0, 0), make_point(1, 0), make_point(3, 3)}, 2, 3, 1);
  EXPECT_EQ(totals.count, 2u);  // only the adjacent pair communicates
}

TEST(Nfi, BoundaryWindowsAreClipped) {
  // A particle at every grid corner, radius larger than the grid: must not
  // read out of bounds and must find all pairs.
  const std::vector<Point2> particles = {make_point(0, 0), make_point(3, 0),
                                         make_point(0, 3), make_point(3, 3)};
  const auto totals = run_nfi(particles, 2, 4, 5);
  EXPECT_EQ(totals.count, 12u);  // all 4*3 ordered pairs within radius 5
}

TEST(Nfi, EmptyParticleSet) {
  const auto totals = run_nfi({}, 3, 4, 2);
  EXPECT_EQ(totals.count, 0u);
  EXPECT_EQ(totals.hops, 0u);
}

TEST(Nfi, ThreeDimensionalPair) {
  const std::vector<Point3> particles = {make_point(0, 0, 0),
                                         make_point(1, 1, 1)};
  const OccupancyGrid<3> grid(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto cheb = nfi_totals<3>(particles, grid, part, bus, 1,
                                  NeighborNorm::kChebyshev);
  EXPECT_EQ(cheb.count, 2u);
  EXPECT_EQ(cheb.hops, 2u);
  const auto manh = nfi_totals<3>(particles, grid, part, bus, 2,
                                  NeighborNorm::kManhattan);
  EXPECT_EQ(manh.count, 0u);  // Manhattan distance is 3
}

TEST(Nfi, SimdHalfWindowMatchesForcedScalar) {
  // The dispatched half-window compaction kernel vs the per-cell scalar
  // scan, over both norms and the radii that take the SIMD path (r >= 2),
  // including a radius that clips every boundary window. Particles land
  // on edges and corners so the masked tail loads run at the row ends.
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 500; ++i) {
    particles.push_back(make_point((i * 17 + i / 37) % 32, (i * 29) % 32));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 5) < pack(b, 5);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());

  const OccupancyGrid<2> grid(particles, 5);
  const Partition part(particles.size(), 8);
  const topo::BusTopology bus(8);

  for (const unsigned radius : {2u, 3u, 4u, 40u}) {
    for (const NeighborNorm norm :
         {NeighborNorm::kChebyshev, NeighborNorm::kManhattan}) {
      const auto dispatched =
          nfi_totals<2>(particles, grid, part, bus, radius, norm);
      const util::simd::ScopedForceScalar force;
      const auto scalar =
          nfi_totals<2>(particles, grid, part, bus, radius, norm);
      EXPECT_EQ(dispatched, scalar)
          << "radius=" << radius << " norm="
          << (norm == NeighborNorm::kChebyshev ? "chebyshev" : "manhattan");
      EXPECT_GT(dispatched.count, 0u);
    }
  }
}

}  // namespace
}  // namespace sfc::fmm
