// Visitor/reducer consistency: nfi_visit must enumerate exactly the
// communications nfi_totals counts.
#include "fmm/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "topology/linear.hpp"

namespace sfc::fmm {
namespace {

std::vector<Point2> pseudo_particles(std::size_t n, unsigned level) {
  std::vector<Point2> particles;
  const std::uint32_t side = 1u << level;
  for (std::uint32_t i = 0; i < n; ++i) {
    particles.push_back(
        make_point((i * 37 + 5) % side, (i * 101 + i / 7) % side));
  }
  std::sort(particles.begin(), particles.end(),
            [level](const Point2& a, const Point2& b) {
              return pack(a, level) < pack(b, level);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  return particles;
}

TEST(NfiVisit, MatchesNfiTotals) {
  const auto particles = pseudo_particles(800, 6);
  const OccupancyGrid<2> grid(particles, 6);
  const Partition part(particles.size(), 16);
  const topo::BusTopology bus(16);

  for (const NeighborNorm norm :
       {NeighborNorm::kChebyshev, NeighborNorm::kManhattan}) {
    for (const unsigned radius : {1u, 2u, 4u}) {
      core::CommTotals visited;
      nfi_visit<2>(particles, grid, radius, norm,
                   [&](std::size_t i, std::size_t j) {
                     visited.hops += bus.distance(part.proc_of(i),
                                                  part.proc_of(j));
                     ++visited.count;
                   });
      const auto reduced =
          nfi_totals<2>(particles, grid, part, bus, radius, norm);
      EXPECT_EQ(visited, reduced) << "radius " << radius;
    }
  }
}

TEST(NfiVisit, PairsAreSymmetric) {
  // (i, j) visited <=> (j, i) visited: the neighborhood relation is
  // symmetric for both norms.
  const auto particles = pseudo_particles(400, 5);
  const OccupancyGrid<2> grid(particles, 5);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  nfi_visit<2>(particles, grid, 2, NeighborNorm::kChebyshev,
               [&](std::size_t i, std::size_t j) { pairs.emplace_back(i, j); });
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [i, j] : pairs) {
    ASSERT_TRUE(std::binary_search(pairs.begin(), pairs.end(),
                                   std::make_pair(j, i)))
        << i << " <- " << j;
  }
}

TEST(NfiVisit, ThreeDMatchesTotals) {
  std::vector<Point3> particles;
  for (std::uint32_t i = 0; i < 200; ++i) {
    particles.push_back(
        make_point(i % 16, (i * 7) % 16, (i * 3 + 1) % 16));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point3& a, const Point3& b) {
              return pack(a, 4) < pack(b, 4);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const OccupancyGrid<3> grid(particles, 4);
  const Partition part(particles.size(), 8);
  const topo::BusTopology bus(8);

  core::CommTotals visited;
  nfi_visit<3>(particles, grid, 1, NeighborNorm::kChebyshev,
               [&](std::size_t i, std::size_t j) {
                 visited.hops +=
                     bus.distance(part.proc_of(i), part.proc_of(j));
                 ++visited.count;
               });
  const auto reduced = nfi_totals<3>(particles, grid, part, bus, 1,
                                     NeighborNorm::kChebyshev);
  EXPECT_EQ(visited, reduced);
}

}  // namespace
}  // namespace sfc::fmm
