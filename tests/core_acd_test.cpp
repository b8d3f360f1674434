// End-to-end ACD pipeline tests: determinism, invariants across
// topologies/processor counts, and paper-shaped orderings at small scale.
#include "core/acd.hpp"

#include <gtest/gtest.h>

namespace sfc::core {
namespace {

Scenario2 base_scenario() {
  Scenario2 s;
  s.particles = 2000;
  s.level = 7;  // 128 x 128
  s.procs = 256;
  s.particle_curve = CurveKind::kHilbert;
  s.processor_curve = CurveKind::kHilbert;
  s.topology = topo::TopologyKind::kTorus;
  s.distribution = dist::DistKind::kUniform;
  s.radius = 1;
  s.seed = 12345;
  return s;
}

TEST(AcdPipeline, DeterministicAcrossRuns) {
  const auto a = compute_acd<2>(base_scenario());
  const auto b = compute_acd<2>(base_scenario());
  EXPECT_EQ(a.nfi, b.nfi);
  EXPECT_EQ(a.ffi.total(), b.ffi.total());
}

TEST(AcdPipeline, SingleProcessorHasZeroAcd) {
  auto s = base_scenario();
  s.procs = 1;
  const auto r = compute_acd<2>(s);
  EXPECT_GT(r.nfi.count, 0u);
  EXPECT_EQ(r.nfi.hops, 0u);
  EXPECT_EQ(r.ffi.total().hops, 0u);
}

TEST(AcdPipeline, CommunicationCountsIndependentOfTopology) {
  // The set of communications depends only on the particles and their
  // ordering; the topology changes only the distances.
  auto s = base_scenario();
  const auto torus = compute_acd<2>(s);
  s.topology = topo::TopologyKind::kHypercube;
  const auto cube = compute_acd<2>(s);
  s.topology = topo::TopologyKind::kBus;
  const auto bus = compute_acd<2>(s);
  EXPECT_EQ(torus.nfi.count, cube.nfi.count);
  EXPECT_EQ(torus.nfi.count, bus.nfi.count);
  EXPECT_EQ(torus.ffi.total().count, cube.ffi.total().count);
  EXPECT_EQ(torus.ffi.total().count, bus.ffi.total().count);
}

TEST(AcdPipeline, TorusNeverWorseThanMesh) {
  auto s = base_scenario();
  const auto torus = compute_acd<2>(s);
  s.topology = topo::TopologyKind::kMesh;
  const auto mesh = compute_acd<2>(s);
  EXPECT_LE(torus.nfi.hops, mesh.nfi.hops);
  EXPECT_LE(torus.ffi.total().hops, mesh.ffi.total().hops);
}

TEST(AcdPipeline, LargerRadiusAddsCommunications) {
  auto s = base_scenario();
  const auto r1 = compute_acd<2>(s);
  s.radius = 3;
  const auto r3 = compute_acd<2>(s);
  EXPECT_GT(r3.nfi.count, r1.nfi.count);
  // FFI does not depend on the near-field radius.
  EXPECT_EQ(r3.ffi.total(), r1.ffi.total());
}

TEST(AcdPipeline, MoreProcessorsRaiseAcd) {
  // Fewer particles per processor -> more remote neighbors -> higher ACD.
  auto s = base_scenario();
  s.procs = 16;
  const auto small = compute_acd<2>(s);
  s.procs = 1024;
  const auto large = compute_acd<2>(s);
  EXPECT_GT(large.nfi.acd(), small.nfi.acd());
}

TEST(AcdPipeline, RowMajorPairingIsWorstAtSmallScale) {
  // The paper's headline ordering (Tables I): the Row/Row pairing must lose
  // to the Hilbert/Hilbert pairing by a wide margin.
  auto s = base_scenario();
  s.particles = 4000;
  const auto hilbert = compute_acd<2>(s);
  s.particle_curve = CurveKind::kRowMajor;
  s.processor_curve = CurveKind::kRowMajor;
  const auto row = compute_acd<2>(s);
  EXPECT_GT(row.nfi.acd(), 2.0 * hilbert.nfi.acd());
  EXPECT_GT(row.ffi.total().acd(), hilbert.ffi.total().acd());
}

TEST(AcdPipeline, NfiCountMatchesBruteForce) {
  // The NFI communication count equals the number of ordered particle
  // pairs within Chebyshev radius r, independently recomputed.
  auto s = base_scenario();
  s.particles = 300;
  s.level = 5;
  s.radius = 2;
  dist::SampleConfig cfg;
  cfg.count = s.particles;
  cfg.level = s.level;
  cfg.seed = s.seed;
  const auto particles =
      dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  std::uint64_t expected = 0;
  for (const auto& a : particles) {
    for (const auto& b : particles) {
      if (!(a == b) && chebyshev(a, b) <= 2) ++expected;
    }
  }
  const auto r = compute_acd<2>(s);
  EXPECT_EQ(r.nfi.count, expected);
}

TEST(AcdInstance, ReusableAcrossProcessorCounts) {
  dist::SampleConfig cfg;
  cfg.count = 1000;
  cfg.level = 6;
  cfg.seed = 9;
  auto particles = dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(std::move(particles), 6, *curve);

  double prev = -1.0;
  for (const topo::Rank p : {4u, 16u, 64u, 256u}) {
    const fmm::Partition part(instance.particles().size(), p);
    const auto net =
        topo::make_topology<2>(topo::TopologyKind::kTorus, p, curve.get());
    const double acd = instance.nfi(part, *net, 1).acd();
    EXPECT_GT(acd, prev);
    prev = acd;
  }
}

TEST(AcdInstance, ParticlesAreSortedByCurve) {
  dist::SampleConfig cfg;
  cfg.count = 500;
  cfg.level = 6;
  cfg.seed = 10;
  auto particles = dist::sample_particles<2>(dist::DistKind::kNormal, cfg);
  const auto curve = make_curve<2>(CurveKind::kMorton);
  const AcdInstance<2> instance(std::move(particles), 6, *curve);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < instance.particles().size(); ++i) {
    const std::uint64_t idx = curve->index(instance.particles()[i], 6);
    ASSERT_GE(idx, prev);
    prev = idx;
  }
}

TEST(AcdPipeline, ThreeDimensionalScenarioRuns) {
  Scenario3 s;
  s.particles = 500;
  s.level = 4;  // 16^3 grid
  s.procs = 64;
  s.topology = topo::TopologyKind::kTorus;  // 4x4x4 torus
  s.distribution = dist::DistKind::kUniform;
  s.radius = 1;
  s.seed = 5;
  const auto r = compute_acd<3>(s);
  EXPECT_GT(r.nfi.count, 0u);
  EXPECT_GT(r.ffi.total().count, 0u);
  EXPECT_GT(r.nfi.acd(), 0.0);
}

}  // namespace
}  // namespace sfc::core
