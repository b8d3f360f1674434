// Flat hop-table construction validated against the virtual distance()
// oracle on every topology family, plus rank-pair aggregation: the
// histogram-and-fold path must be bit-identical to per-event summation.
#include "topology/distance_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/acd.hpp"
#include "core/rank_pair.hpp"
#include "distribution/distribution.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "topology/dragonfly.hpp"
#include "topology/factory.hpp"
#include "topology/graph.hpp"
#include "topology/grid.hpp"
#include "topology/hypercube.hpp"
#include "topology/linear.hpp"
#include "topology/tree.hpp"

namespace sfc {
namespace {

void expect_table_matches(const topo::Topology& net) {
  const topo::Rank p = net.size();
  ASSERT_TRUE(topo::distance_table_fits(p));
  const topo::DistanceTable& t = net.dense_table();
  ASSERT_EQ(t.procs(), p);
  for (topo::Rank a = 0; a < p; ++a) {
    const std::uint32_t* row = t.row(a);
    for (topo::Rank b = 0; b < p; ++b) {
      ASSERT_EQ(t(a, b), net.distance(a, b))
          << net.name() << " p=" << p << " (" << a << "," << b << ")";
      ASSERT_EQ(row[b], t(a, b));
    }
  }
  // Lazy construction caches: repeated calls hand back the same object.
  EXPECT_EQ(&net.dense_table(), &t);
}

TEST(DistanceTable, BusAndRingAllSizes) {
  for (const topo::Rank p : {1u, 2u, 3u, 7u, 16u, 33u}) {
    expect_table_matches(topo::BusTopology(p));
    expect_table_matches(topo::RingTopology(p));
  }
}

TEST(DistanceTable, MeshAndTorusAllLevels) {
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  for (const unsigned level : {1u, 2u, 3u}) {
    expect_table_matches(topo::MeshTopology<2>(level, *curve));
    expect_table_matches(topo::TorusTopology<2>(level, *curve));
  }
  const auto curve3 = sfc::make_curve<3>(CurveKind::kMorton);
  expect_table_matches(topo::MeshTopology<3>(1, *curve3));
  expect_table_matches(topo::TorusTopology<3>(2, *curve3));
}

TEST(DistanceTable, HypercubeTreeDragonfly) {
  for (const topo::Rank p : {1u, 2u, 8u, 64u}) {
    expect_table_matches(topo::HypercubeTopology(p));
  }
  for (const topo::Rank p : {1u, 4u, 16u, 64u}) {
    expect_table_matches(topo::TreeTopology(p, 4));
  }
  expect_table_matches(topo::TreeTopology(8, 2));
  for (const topo::Rank a : {1u, 2u, 3u, 5u}) {
    expect_table_matches(topo::DragonflyTopology(a));
  }
}

TEST(DistanceTable, GraphTopologyReusesApspCache) {
  expect_table_matches(topo::build_tree_graph(16, 4));
  expect_table_matches(topo::build_hypercube_graph(16));
  // Hand-built graph with internal (non-processor) vertices.
  topo::GraphTopology g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {0, 2, 4});
  expect_table_matches(g);
}

TEST(DistanceTable, EveryFactoryKind) {
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  for (const auto kind :
       {topo::TopologyKind::kBus, topo::TopologyKind::kRing,
        topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
        topo::TopologyKind::kQuadtree, topo::TopologyKind::kHypercube}) {
    const auto net = topo::make_topology<2>(kind, 16, curve.get());
    expect_table_matches(*net);
  }
}

TEST(DistanceTable, BudgetGate) {
  // 4096² is exactly the 2^24-entry budget; anything larger must refuse
  // (table1_nfi sweeps p = 65536 — a table there would be 16 GiB).
  EXPECT_TRUE(topo::distance_table_fits(4096));
  EXPECT_FALSE(topo::distance_table_fits(4097));
  EXPECT_FALSE(topo::distance_table_fits(65536));
}

// ---------------------------------------------------------------------------
// RankPairAccumulator: the folds and the merge agree with per-event sums.

/// Deterministic pseudo-random pair stream (no RNG dependency needed).
std::vector<std::pair<topo::Rank, topo::Rank>> pair_stream(topo::Rank p,
                                                           std::size_t n) {
  std::vector<std::pair<topo::Rank, topo::Rank>> pairs;
  pairs.reserve(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    pairs.emplace_back(static_cast<topo::Rank>((state >> 33) % p),
                       static_cast<topo::Rank>((state >> 13) % p));
  }
  return pairs;
}

TEST(RankPairAccumulator, FoldMatchesPerEventSum) {
  const topo::Rank p = 16;
  const topo::TreeTopology tree(p, 4);
  core::RankPairAccumulator acc(p);
  std::uint64_t expect_hops = 0;
  const auto pairs = pair_stream(p, 2000);
  for (const auto& [a, b] : pairs) {
    acc.add(a, b);
    expect_hops += tree.distance(a, b);
  }
  const core::CommTotals t = acc.fold(tree.dense_table());
  EXPECT_EQ(t.count, pairs.size());
  EXPECT_EQ(t.hops, expect_hops);
  // Virtual-dispatch fold (one distance() per distinct pair) agrees.
  const core::CommTotals v = acc.fold(static_cast<const topo::Topology&>(tree));
  EXPECT_EQ(v.hops, t.hops);
  EXPECT_EQ(v.count, t.count);
}

TEST(RankPairAccumulator, MergeMatchesOneAccumulator) {
  const topo::Rank p = 11;
  core::RankPairAccumulator sealed(p);
  core::RankPairAccumulator staged(p);
  core::RankPairAccumulator reference(p);
  const auto pairs = pair_stream(p, 3000);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    (i % 2 == 0 ? sealed : staged).add(a, b);
    reference.add(a, b);
  }
  sealed.seal();
  sealed += staged;  // a staged histogram merged into a sealed one
  std::vector<std::tuple<topo::Rank, topo::Rank, std::uint64_t>> mv, rv;
  sealed.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    mv.emplace_back(a, b, c);
  });
  reference.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    rv.emplace_back(a, b, c);
  });
  EXPECT_EQ(mv, rv);
  const topo::BusTopology bus(p);
  const auto rt = reference.fold(bus.dense_table());
  const auto mt = sealed.fold(bus.dense_table());
  EXPECT_EQ(mt.hops, rt.hops);
  EXPECT_EQ(mt.count, rt.count);
}

TEST(RankPairAccumulator, CountMultiplicityAndZero) {
  core::RankPairAccumulator acc(4);
  acc.add(1, 2, 10);
  acc.add(1, 2);
  acc.add(3, 0, 0);  // zero-count adds are dropped
  EXPECT_EQ(acc.events(), 11u);
  std::size_t seen = 0;
  acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 11u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: the aggregated NFI/FFI paths are bit-identical to the direct
// per-event reference on a seeded scenario, on every topology family.

std::vector<std::unique_ptr<topo::Topology>> all_topologies(
    topo::Rank p, const Curve<2>& curve) {
  std::vector<std::unique_ptr<topo::Topology>> nets;
  for (const auto kind :
       {topo::TopologyKind::kBus, topo::TopologyKind::kRing,
        topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
        topo::TopologyKind::kQuadtree, topo::TopologyKind::kHypercube}) {
    nets.push_back(topo::make_topology<2>(kind, p, &curve));
  }
  return nets;
}

void expect_models_match(const core::AcdInstance<2>& instance,
                         const fmm::Partition& part,
                         const topo::Topology& net, unsigned radius,
                         fmm::NeighborNorm norm) {
  const core::CommTotals nfi = fmm::nfi_totals<2>(
      instance.particles(), instance.grid(), part, net, radius, norm);
  const core::CommTotals nfi_ref = fmm::nfi_totals_direct<2>(
      instance.particles(), instance.grid(), part, net, radius, norm);
  EXPECT_EQ(nfi.hops, nfi_ref.hops) << net.name();
  EXPECT_EQ(nfi.count, nfi_ref.count) << net.name();

  const fmm::FfiTotals ffi = fmm::ffi_totals<2>(instance.tree(), part, net);
  const fmm::FfiTotals ffi_ref =
      fmm::ffi_totals_direct<2>(instance.tree(), part, net);
  EXPECT_EQ(ffi.interpolation.hops, ffi_ref.interpolation.hops) << net.name();
  EXPECT_EQ(ffi.anterpolation.hops, ffi_ref.anterpolation.hops) << net.name();
  EXPECT_EQ(ffi.interaction.hops, ffi_ref.interaction.hops) << net.name();
  EXPECT_EQ(ffi.total().count, ffi_ref.total().count) << net.name();
}

TEST(AggregatedEquivalence, AllTopologiesSeededScenario) {
  const unsigned level = 6;
  const topo::Rank p = 64;
  dist::SampleConfig cfg;
  cfg.count = 2000;
  cfg.level = level;
  cfg.seed = 42;
  auto particles = dist::sample_particles<2>(dist::DistKind::kNormal, cfg);
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(std::move(particles), level, *curve);
  const fmm::Partition part(instance.particles().size(), p);
  for (const auto& net : all_topologies(p, *curve)) {
    expect_models_match(instance, part, *net, 2,
                        fmm::NeighborNorm::kChebyshev);
    expect_models_match(instance, part, *net, 1,
                        fmm::NeighborNorm::kManhattan);
  }
  // Dragonfly has a = 7 → 56 ranks; it needs its own partition.
  const topo::DragonflyTopology dragonfly(7);
  const fmm::Partition dpart(instance.particles().size(), dragonfly.size());
  expect_models_match(instance, dpart, dragonfly, 2,
                      fmm::NeighborNorm::kChebyshev);
}

TEST(AggregatedEquivalence, WeightedPartition) {
  const unsigned level = 5;
  dist::SampleConfig cfg;
  cfg.count = 600;
  cfg.level = level;
  cfg.seed = 7;
  auto particles =
      dist::sample_particles<2>(dist::DistKind::kExponential, cfg);
  const auto curve = sfc::make_curve<2>(CurveKind::kMorton);
  const core::AcdInstance<2> instance(std::move(particles), level, *curve);
  // Skewed weights: later particles cost more, so cut points differ from
  // the equal-count partition and some chunks are empty-ish.
  std::vector<double> weights(instance.particles().size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 17);
  }
  const fmm::Partition part = fmm::Partition::weighted(weights, 32);
  const topo::HypercubeTopology cube(32);
  expect_models_match(instance, part, cube, 1, fmm::NeighborNorm::kChebyshev);
}

TEST(AggregatedEquivalence, ThreeDimensional) {
  const unsigned level = 3;
  dist::SampleConfig cfg;
  cfg.count = 300;
  cfg.level = level;
  cfg.seed = 3;
  auto particles = dist::sample_particles<3>(dist::DistKind::kUniform, cfg);
  const auto curve = sfc::make_curve<3>(CurveKind::kHilbert);
  const core::AcdInstance<3> instance(std::move(particles), level, *curve);
  const fmm::Partition part(instance.particles().size(), 8);
  const topo::TorusTopology<3> torus(1, *curve);
  const core::CommTotals nfi = fmm::nfi_totals<3>(
      instance.particles(), instance.grid(), part, torus, 1);
  const core::CommTotals ref = fmm::nfi_totals_direct<3>(
      instance.particles(), instance.grid(), part, torus, 1);
  EXPECT_EQ(nfi.hops, ref.hops);
  EXPECT_EQ(nfi.count, ref.count);
  const fmm::FfiTotals ffi = fmm::ffi_totals<3>(instance.tree(), part, torus);
  const fmm::FfiTotals fref =
      fmm::ffi_totals_direct<3>(instance.tree(), part, torus);
  EXPECT_EQ(ffi.total().hops, fref.total().hops);
  EXPECT_EQ(ffi.total().count, fref.total().count);
}

}  // namespace
}  // namespace sfc
