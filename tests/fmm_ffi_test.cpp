// Far-field interaction model tests: cell-tree invariants and
// hand-computed interpolation/anterpolation/interaction totals.
#include "fmm/ffi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fmm/cells.hpp"
#include "topology/linear.hpp"

namespace sfc::fmm {
namespace {

TEST(CellTree, SingleParticleChainsToRoot) {
  const std::vector<Point2> particles = {make_point(5, 2)};
  const CellTree<2> tree(particles, 3);
  EXPECT_EQ(tree.finest_level(), 3u);
  for (unsigned l = 0; l <= 3; ++l) {
    ASSERT_EQ(tree.cells(l).size(), 1u) << "level " << l;
    EXPECT_EQ(tree.cells(l)[0].min_particle, 0u);
  }
  EXPECT_EQ(tree.cells(3)[0].key, cell_key(make_point(5, 2)));
  EXPECT_EQ(tree.cells(0)[0].key, 0u);
  EXPECT_EQ(tree.total_cells(), 4u);
}

TEST(CellTree, ParentOfOccupiedCellIsOccupied) {
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 60; ++i) {
    particles.push_back(make_point((i * 11) % 16, (i * 5 + 2) % 16));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 4) < pack(b, 4);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 4);
  for (unsigned l = 1; l <= 4; ++l) {
    for (const auto& cell : tree.cells(l)) {
      ASSERT_GE(tree.find(l - 1, parent_key<2>(cell.key)), 0)
          << "level " << l;
    }
  }
}

TEST(CellTree, MinParticlePropagatesUpward) {
  // Two particles: index order determines ownership everywhere above.
  const std::vector<Point2> particles = {make_point(3, 3), make_point(0, 0)};
  const CellTree<2> tree(particles, 2);
  // Root and both level-1 quadrants take the min index of their subtree.
  EXPECT_EQ(tree.cells(0)[0].min_particle, 0u);
  const auto ll = tree.find(1, cell_key(make_point(0, 0)));
  const auto ur = tree.find(1, cell_key(make_point(1, 1)));
  ASSERT_GE(ll, 0);
  ASSERT_GE(ur, 0);
  EXPECT_EQ(tree.cells(1)[static_cast<std::size_t>(ll)].min_particle, 1u);
  EXPECT_EQ(tree.cells(1)[static_cast<std::size_t>(ur)].min_particle, 0u);
}

TEST(CellTree, FindReturnsMinusOneForUnoccupied) {
  const std::vector<Point2> particles = {make_point(0, 0)};
  const CellTree<2> tree(particles, 2);
  EXPECT_LT(tree.find(2, cell_key(make_point(3, 3))), 0);
  EXPECT_GE(tree.find(2, cell_key(make_point(0, 0))), 0);
}

TEST(CellTree, LevelsSortedByKey) {
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 40; ++i) {
    particles.push_back(make_point((i * 13 + 3) % 32, (i * 29) % 32));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 5) < pack(b, 5);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 5);
  for (unsigned l = 0; l <= 5; ++l) {
    const auto& cells = tree.cells(l);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      ASSERT_LT(cells[i - 1].key, cells[i].key) << "level " << l;
    }
  }
}

TEST(CellTree, SparseFindFallbackBeyondDenseBudget) {
  // 2-D level 13 has 2^26 cells per level > the 2^24 dense budget, so the
  // finest level must fall back to binary search — and agree with the
  // dense path used at the coarser levels.
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 500; ++i) {
    particles.push_back(
        make_point((i * 524287u) % 8192, (i * 37123u + 11) % 8192));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 13) < pack(b, 13);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 13);
  // Every stored cell must be findable at every level; a neighbor key
  // that is unoccupied must return -1.
  for (unsigned l = 0; l <= 13; ++l) {
    for (const auto& cell : tree.cells(l)) {
      const auto idx = tree.find(l, cell.key);
      ASSERT_GE(idx, 0) << "level " << l;
      ASSERT_EQ(tree.cells(l)[static_cast<std::size_t>(idx)].key, cell.key);
    }
  }
  EXPECT_LT(tree.find(13, cell_key(make_point(1, 0))), 0);
}

TEST(Ffi, TwoOppositeCornersHandComputed) {
  // Particles 0:(0,0), 1:(3,3) on a 4x4 grid, 2 bus processors.
  // Interpolation: level1: (0,0)->root hop 0, (1,1)->root hop 1;
  //                level2: both cells match their parent's owner, hop 0.
  // Interaction: at level 2 the two cells are in each other's ILs, 1 hop
  // each direction.
  const std::vector<Point2> particles = {make_point(0, 0), make_point(3, 3)};
  const CellTree<2> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<2>(tree, part, bus);

  EXPECT_EQ(totals.interpolation.count, 4u);
  EXPECT_EQ(totals.interpolation.hops, 1u);
  EXPECT_EQ(totals.anterpolation.count, 4u);
  EXPECT_EQ(totals.anterpolation.hops, 1u);
  EXPECT_EQ(totals.interaction.count, 2u);
  EXPECT_EQ(totals.interaction.hops, 2u);
  EXPECT_EQ(totals.total().count, 10u);
  EXPECT_EQ(totals.total().hops, 4u);
  EXPECT_DOUBLE_EQ(totals.total().acd(), 0.4);
}

TEST(Ffi, AdjacentCellsDoNotInteract) {
  // Two particles in adjacent finest cells: interaction lists must stay
  // empty at every level (ancestors are adjacent or identical too).
  const std::vector<Point2> particles = {make_point(1, 1), make_point(2, 1)};
  const CellTree<2> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<2>(tree, part, bus);
  EXPECT_EQ(totals.interaction.count, 0u);
  EXPECT_GT(totals.interpolation.count, 0u);
}

TEST(Ffi, SingleParticleOnlyAccumulates) {
  const std::vector<Point2> particles = {make_point(2, 1)};
  const CellTree<2> tree(particles, 3);
  const Partition part(1, 1);
  const topo::BusTopology bus(1);
  const auto totals = ffi_totals<2>(tree, part, bus);
  EXPECT_EQ(totals.interpolation.count, 3u);  // one chain to the root
  EXPECT_EQ(totals.interpolation.hops, 0u);
  EXPECT_EQ(totals.interaction.count, 0u);
}

TEST(Ffi, ThreeDimensionalOppositeCorners) {
  const std::vector<Point3> particles = {make_point(0, 0, 0),
                                         make_point(3, 3, 3)};
  const CellTree<3> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<3>(tree, part, bus);
  // Same shape as 2-D: one 1-hop interpolation at level 1, zero-hop at
  // level 2, symmetric interaction at level 2.
  EXPECT_EQ(totals.interpolation.count, 4u);
  EXPECT_EQ(totals.interpolation.hops, 1u);
  EXPECT_EQ(totals.interaction.count, 2u);
  EXPECT_EQ(totals.interaction.hops, 2u);
}

TEST(Ffi, DeeperTreesAccumulateMoreInterpolation) {
  // The same two particles at finer resolutions produce longer chains.
  auto interp_count = [](unsigned level) {
    const std::uint32_t hi = (1u << level) - 1;
    const std::vector<Point2> particles = {make_point(0, 0),
                                           make_point(hi, hi)};
    const CellTree<2> tree(particles, level);
    const Partition part(2, 2);
    const topo::BusTopology bus(2);
    return ffi_totals<2>(tree, part, bus).interpolation.count;
  };
  EXPECT_EQ(interp_count(2), 4u);
  EXPECT_EQ(interp_count(3), 6u);
  EXPECT_EQ(interp_count(5), 10u);
}

}  // namespace
}  // namespace sfc::fmm
