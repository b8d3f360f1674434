// Link-contention extension tests: dimension-order routing, per-link
// loads, hop consistency with the ACD reducers, per-link agreement with
// routing every event on its own, and the Hilbert-vs-row congestion
// contrast.
#include "core/contention.hpp"

#include <gtest/gtest.h>

#include <string>

#include "distribution/distribution.hpp"
#include "fmm/enumerate.hpp"
#include "oracles/oracles.hpp"

namespace sfc::core {
namespace {

TEST(LinkLoadMap, SingleMessageRoutesXThenY) {
  LinkLoadMap map(2, /*wrap=*/false);  // 4x4 mesh
  map.route(make_point(0, 0), make_point(2, 1));
  // X leg: (0,0)->(1,0)->(2,0); Y leg: (2,0)->(2,1).
  EXPECT_EQ(map.link_load(0, 0, 0), 1u);
  EXPECT_EQ(map.link_load(1, 0, 0), 1u);
  EXPECT_EQ(map.link_load(2, 0, 2), 1u);
  const auto s = map.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.hops, 3u);
  EXPECT_EQ(s.links_used, 3u);
  EXPECT_EQ(s.max_link_load, 1u);
}

TEST(LinkLoadMap, NegativeDirections) {
  LinkLoadMap map(2, false);
  map.route(make_point(3, 3), make_point(1, 2));
  EXPECT_EQ(map.link_load(3, 3, 1), 1u);  // -x from (3,3)
  EXPECT_EQ(map.link_load(2, 3, 1), 1u);
  EXPECT_EQ(map.link_load(1, 3, 3), 1u);  // -y from (1,3)
  EXPECT_EQ(map.stats().hops, 3u);
}

TEST(LinkLoadMap, TorusTakesShorterWrap) {
  LinkLoadMap map(3, /*wrap=*/true);  // 8x8 torus
  map.route(make_point(7, 0), make_point(0, 0));
  // One +x hop across the wrap, not seven -x hops.
  const auto s = map.stats();
  EXPECT_EQ(s.hops, 1u);
  EXPECT_EQ(map.link_load(7, 0, 0), 1u);
}

TEST(LinkLoadMap, MeshNeverWraps) {
  LinkLoadMap map(3, false);
  map.route(make_point(7, 0), make_point(0, 0));
  EXPECT_EQ(map.stats().hops, 7u);
}

TEST(LinkLoadMap, ZeroHopMessageCountsButLoadsNothing) {
  LinkLoadMap map(2, true);
  map.route(make_point(1, 1), make_point(1, 1));
  const auto s = map.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.hops, 0u);
  EXPECT_EQ(s.links_used, 0u);
  EXPECT_DOUBLE_EQ(s.imbalance(), 0.0);
}

TEST(LinkLoadMap, TotalLinkCounts) {
  EXPECT_EQ(LinkLoadMap(2, true).stats().total_links, 4u * 4u * 4u);
  EXPECT_EQ(LinkLoadMap(2, false).stats().total_links, 2u * 2u * 4u * 3u);
}

TEST(LinkLoadMap, ResetClearsLoads) {
  LinkLoadMap map(2, false);
  map.route(make_point(0, 0), make_point(3, 3));
  map.reset();
  const auto s = map.stats();
  EXPECT_EQ(s.messages, 0u);
  EXPECT_EQ(s.hops, 0u);
}

class ContentionPipeline : public ::testing::Test {
 protected:
  ContentionPipeline() {
    dist::SampleConfig cfg;
    cfg.count = 3000;
    cfg.level = 7;
    cfg.seed = 21;
    particles_ = dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  }
  std::vector<Point2> particles_;
};

TEST_F(ContentionPipeline, TorusHopsMatchAcdTotals) {
  // DOR routing on the torus takes shortest paths, so total link
  // traversals must equal the hop sum the ACD reducer computes.
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(particles_, 7, *curve);
  const fmm::Partition part(instance.particles().size(), 256);
  const topo::TorusTopology<2> torus(4, *curve);

  const auto congestion = nfi_congestion(instance, part, torus, true, 1);
  const auto totals = instance.nfi(part, torus, 1);
  EXPECT_EQ(congestion.hops, totals.hops);
  EXPECT_EQ(congestion.messages, totals.count);

  const auto ffi_cong = ffi_congestion(instance, part, torus, true);
  const auto ffi = instance.ffi(part, torus);
  EXPECT_EQ(ffi_cong.hops, ffi.total().hops);
  EXPECT_EQ(ffi_cong.messages, ffi.total().count);
}

TEST_F(ContentionPipeline, MeshHopsMatchAcdTotals) {
  const auto curve = make_curve<2>(CurveKind::kMorton);
  const AcdInstance<2> instance(particles_, 7, *curve);
  const fmm::Partition part(instance.particles().size(), 256);
  const topo::MeshTopology<2> mesh(4, *curve);

  const auto congestion = nfi_congestion(instance, part, mesh, false, 1);
  const auto totals = instance.nfi(part, mesh, 1);
  EXPECT_EQ(congestion.hops, totals.hops);
}

TEST_F(ContentionPipeline, HilbertCoolerThanRowMajorOnWorstLink) {
  // The extension's headline: the ACD-optimal ordering also keeps the
  // hottest link cooler than the row-major pairing.
  const auto hilbert = make_curve<2>(CurveKind::kHilbert);
  const auto row = make_curve<2>(CurveKind::kRowMajor);
  const fmm::Partition part(particles_.size(), 256);

  const AcdInstance<2> hi(particles_, 7, *hilbert);
  const topo::TorusTopology<2> torus_h(4, *hilbert);
  const AcdInstance<2> ri(particles_, 7, *row);
  const topo::TorusTopology<2> torus_r(4, *row);

  const auto ch = nfi_congestion(hi, part, torus_h, true, 1);
  const auto cr = nfi_congestion(ri, part, torus_r, true, 1);
  EXPECT_LT(ch.max_link_load, cr.max_link_load);
}

/// Every directed link load and every stat of `got` against `want`.
void expect_same_loads(const LinkLoadMap& got, const LinkLoadMap& want,
                       unsigned level, const std::string& what) {
  const std::uint32_t side = 1u << level;
  std::uint64_t mismatches = 0;
  for (std::uint32_t y = 0; y < side; ++y) {
    for (std::uint32_t x = 0; x < side; ++x) {
      for (unsigned dir = 0; dir < 4; ++dir) {
        if (got.link_load(x, y, dir) != want.link_load(x, y, dir)) {
          ++mismatches;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  const CongestionStats g = got.stats();
  const CongestionStats w = want.stats();
  EXPECT_EQ(g.messages, w.messages) << what;
  EXPECT_EQ(g.hops, w.hops) << what;
  EXPECT_EQ(g.max_link_load, w.max_link_load) << what;
  EXPECT_EQ(g.links_used, w.links_used) << what;
}

/// The pair-aggregated link loads against routing each event one at a
/// time: NFI events from nfi_visit (every ordered particle pair), FFI
/// events from the definitional oracle (all three families, each in its
/// own direction). Dimension-order routing sends a->b and b->a over
/// different links, so this pins message directions, not just hop sums.
void expect_per_event_loads(const AcdInstance<2>& instance, unsigned level,
                            const topo::GridTopologyBase<2>& net, bool wrap,
                            const std::string& what) {
  const fmm::Partition part(instance.particles().size(), net.size());
  for (const fmm::NeighborNorm norm :
       {fmm::NeighborNorm::kChebyshev, fmm::NeighborNorm::kManhattan}) {
    for (unsigned radius = 1; radius <= 3; ++radius) {
      LinkLoadMap want(net.level(), wrap);
      fmm::nfi_visit<2>(instance.particles(), instance.grid(), radius, norm,
                        [&](std::size_t i, std::size_t j) {
                          want.route(net.coordinate(part.proc_of(i)),
                                     net.coordinate(part.proc_of(j)));
                        });
      expect_same_loads(
          nfi_link_loads(instance, part, net, wrap, radius, norm), want,
          net.level(),
          what + " nfi radius " + std::to_string(radius) +
              (norm == fmm::NeighborNorm::kChebyshev ? " chebyshev"
                                                     : " manhattan"));
    }
  }
  LinkLoadMap want(net.level(), wrap);
  for (const oracle::FfiEvent& e :
       oracle::ffi_event_pairs<2>(instance.particles(), level, part)) {
    want.route(net.coordinate(e.src), net.coordinate(e.dst));
  }
  expect_same_loads(ffi_link_loads(instance, part, net, wrap), want,
                    net.level(), what + " ffi");
}

TEST_F(ContentionPipeline, LinkLoadsMatchPerEventRoutingOnDenseGrid) {
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(particles_, 7, *curve);
  ASSERT_NE(instance.grid().dense_cells(), nullptr);
  expect_per_event_loads(instance, 7, topo::TorusTopology<2>(4, *curve), true,
                         "dense torus");
  expect_per_event_loads(instance, 7, topo::MeshTopology<2>(4, *curve), false,
                         "dense mesh");
}

TEST_F(ContentionPipeline, LinkLoadsMatchPerEventRoutingOnSparseGrid) {
  // The same points on a level-14 grid: 2^28 cells is past the dense
  // occupancy bound, so the NFI kernel takes its generic window path.
  const auto curve = make_curve<2>(CurveKind::kMorton);
  const AcdInstance<2> instance(particles_, 14, *curve);
  ASSERT_EQ(instance.grid().dense_cells(), nullptr);
  expect_per_event_loads(instance, 14, topo::TorusTopology<2>(4, *curve),
                         true, "sparse torus");
  expect_per_event_loads(instance, 14, topo::MeshTopology<2>(4, *curve), false,
                         "sparse mesh");
}

TEST(Contention, TooLargeGridThrows) {
  EXPECT_THROW(LinkLoadMap(14, true), std::invalid_argument);
}

TEST(LinkLoadMap, SingleCellGridHasNoLinks) {
  // Level 0: one processor cell, no links, every message is local.
  LinkLoadMap map(0, /*wrap=*/true);
  EXPECT_EQ(map.stats().total_links, 0u);
  map.route(make_point(0, 0), make_point(0, 0));
  const auto s = map.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.hops, 0u);
  EXPECT_EQ(s.links_used, 0u);
  EXPECT_EQ(s.max_link_load, 0u);
}

TEST_F(ContentionPipeline, SingleProcessorHasNoNetworkTraffic) {
  // p = 1 collapses the whole exchange onto one node: the congestion
  // model must report every message with zero hops and zero link load.
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(particles_, 7, *curve);
  const fmm::Partition part(instance.particles().size(), 1);
  const topo::TorusTopology<2> torus(0, *curve);  // 1x1 torus

  const auto congestion = nfi_congestion(instance, part, torus, true, 1);
  const auto totals = instance.nfi(part, torus, 1);
  EXPECT_EQ(congestion.messages, totals.count);
  EXPECT_GT(congestion.messages, 0u);
  EXPECT_EQ(congestion.hops, 0u);
  EXPECT_EQ(congestion.max_link_load, 0u);
  EXPECT_EQ(totals.hops, 0u);

  const auto ffi_cong = ffi_congestion(instance, part, torus, true);
  EXPECT_EQ(ffi_cong.hops, 0u);
  EXPECT_EQ(ffi_cong.max_link_load, 0u);
  EXPECT_EQ(ffi_cong.messages, instance.ffi(part, torus).total().count);
}

TEST(Contention, MoreProcessorsThanParticles) {
  // n = 3 particles on a 16-processor torus: 13 ranks own nothing. The
  // pipeline must route only between the 3 occupied ranks and still
  // agree with the ACD reducer's hop totals.
  const std::vector<Point2> particles = {make_point(0, 0), make_point(3, 3),
                                         make_point(1, 2)};
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(particles, 2, *curve);
  const fmm::Partition part(instance.particles().size(), 16);
  const topo::TorusTopology<2> torus(2, *curve);  // 4x4, p = 16

  const auto congestion = nfi_congestion(instance, part, torus, true, 3);
  const auto totals = instance.nfi(part, torus, 3);
  EXPECT_EQ(congestion.hops, totals.hops);
  EXPECT_EQ(congestion.messages, totals.count);

  const auto ffi_cong = ffi_congestion(instance, part, torus, true);
  const auto ffi = instance.ffi(part, torus);
  EXPECT_EQ(ffi_cong.hops, ffi.total().hops);
  EXPECT_EQ(ffi_cong.messages, ffi.total().count);
}

}  // namespace
}  // namespace sfc::core
