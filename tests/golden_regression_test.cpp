// Golden regression tests: exact frozen values for deterministic
// configurations. These pin the end-to-end numeric behaviour of the
// pipeline — any refactor of the curves, samplers, models, or topologies
// that changes a number here changed observable behaviour and must be
// reviewed, not rubber-stamped.
//
// All values were produced by this library at the commit that froze them
// and are integers or exact rationals wherever possible.
#include <gtest/gtest.h>

#include <vector>

#include "core/acd.hpp"
#include "core/anns.hpp"
#include "core/clustering.hpp"
#include "core/sweep.hpp"

namespace sfc::core {
namespace {

Scenario2 golden_scenario() {
  Scenario2 s;
  s.particles = 5000;
  s.level = 8;
  s.procs = 1024;
  s.particle_curve = CurveKind::kHilbert;
  s.processor_curve = CurveKind::kHilbert;
  s.topology = topo::TopologyKind::kTorus;
  s.distribution = dist::DistKind::kUniform;
  s.radius = 1;
  s.seed = 777;
  return s;
}

TEST(Golden, HilbertHilbertTorusPipeline) {
  const auto r = compute_acd<2>(golden_scenario());
  EXPECT_EQ(r.nfi.hops, 2500u);
  EXPECT_EQ(r.nfi.count, 3046u);
  EXPECT_EQ(r.ffi.interpolation.hops, 4404u);
  EXPECT_EQ(r.ffi.interpolation.count, 13761u);
  EXPECT_EQ(r.ffi.anterpolation, r.ffi.interpolation);
  EXPECT_EQ(r.ffi.interaction.hops, 519186u);
  EXPECT_EQ(r.ffi.interaction.count, 128090u);
}

TEST(Golden, MortonGrayPairingSameInstance) {
  auto s = golden_scenario();
  s.particle_curve = CurveKind::kMorton;
  s.processor_curve = CurveKind::kGray;
  const auto r = compute_acd<2>(s);
  // Communication *counts* are placement-independent (same particles):
  EXPECT_EQ(r.nfi.count, 3046u);
  EXPECT_EQ(r.ffi.interaction.count, 128090u);
  // Hops are not:
  EXPECT_EQ(r.nfi.hops, 3224u);
  EXPECT_EQ(r.ffi.interaction.hops, 646090u);
}

TEST(Golden, AnnsLevel5ExactValues) {
  // 32x32 grid, radius 1. Z and row-major are exactly (N+1)/2 = 16.5;
  // Gray is exactly 24; Hilbert is exactly 19.625 (an exact multiple of
  // 1/2^k, so EXPECT_DOUBLE_EQ is safe).
  auto anns = [](CurveKind k) {
    return neighbor_stretch(*make_curve<2>(k), 5, 1);
  };
  EXPECT_DOUBLE_EQ(anns(CurveKind::kHilbert).average, 19.625);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kMorton).average, 16.5);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kGray).average, 24.0);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kRowMajor).average, 16.5);
  // Maximum stretches (MNNS): the Z-curve's worst pair jumps a third of
  // the grid; row-major's exactly one row.
  EXPECT_DOUBLE_EQ(anns(CurveKind::kHilbert).maximum, 853.0);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kMorton).maximum, 342.0);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kGray).maximum, 819.0);
  EXPECT_DOUBLE_EQ(anns(CurveKind::kRowMajor).maximum, 32.0);
}

TEST(Golden, ClusteringLevel5Window4) {
  auto clusters = [](CurveKind k) {
    return average_clusters(*make_curve<2>(k), 5, 4, 4);
  };
  EXPECT_NEAR(clusters(CurveKind::kHilbert).average, 3.8715814507, 1e-9);
  EXPECT_NEAR(clusters(CurveKind::kMorton).average, 6.1545778835, 1e-9);
  EXPECT_NEAR(clusters(CurveKind::kGray).average, 5.3448275862, 1e-9);
  EXPECT_DOUBLE_EQ(clusters(CurveKind::kRowMajor).average, 4.0);
  EXPECT_EQ(clusters(CurveKind::kHilbert).maximum, 6u);
  EXPECT_EQ(clusters(CurveKind::kMorton).maximum, 10u);
  EXPECT_EQ(clusters(CurveKind::kRowMajor).maximum, 4u);
}

TEST(Golden, DynamicsTrajectorySixteenSteps) {
  // A fixed 16-step drift trajectory through run_dynamics, pinning the
  // per-step NFI of all three reordering policies. This freezes the
  // whole dynamics stack at once: the drift RNG, the incremental
  // engine's retract/update/assert deltas (the frozen column is
  // maintained purely by DynamicAcd), the per-step re-sort baseline,
  // and the advisor's displaced-fraction trigger (threshold 0.02 fires
  // twice along this trajectory, so the lazy column re-anchors to the
  // re-sorted ordering mid-run).
  DynamicsStudy s;
  s.name = "golden_dynamics";
  s.particles = 1500;
  s.level = 7;  // 128 x 128
  s.procs = 64;
  s.steps = 16;
  s.seed = 777;
  s.move_fraction = 0.1;
  s.repartition_threshold = 0.02;
  const DynamicsResult r = run_dynamics(s);
  ASSERT_EQ(r.steps.size(), 16u);

  const std::vector<std::size_t> moves = {120, 111, 113, 121, 123, 114,
                                          122, 113, 120, 121, 128, 125,
                                          121, 121, 135, 130};
  // Event counts are placement-independent: identical for every policy.
  const std::vector<std::uint64_t> counts = {1068, 1066, 1062, 1032,
                                             1046, 1030, 1034, 1052,
                                             1048, 1046, 1022, 1036,
                                             1024, 1030, 1026, 1026};
  const std::vector<std::uint64_t> frozen_hops = {198, 200, 212, 208,
                                                  214, 218, 204, 224,
                                                  214, 222, 232, 238,
                                                  228, 218, 230, 228};
  const std::vector<std::uint64_t> reorder_hops = {196, 178, 198, 196,
                                                   182, 174, 174, 176,
                                                   178, 180, 184, 164,
                                                   172, 182, 172, 174};
  // Tracks frozen until the first re-partition (after step 6), then
  // re-anchors toward the re-sorted hops.
  const std::vector<std::uint64_t> lazy_hops = {198, 200, 212, 208,
                                                214, 218, 174, 180,
                                                182, 186, 186, 202,
                                                216, 182, 176, 186};
  for (std::size_t t = 0; t < 16; ++t) {
    EXPECT_EQ(r.steps[t].moves, moves[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].frozen_nfi.count, counts[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].reorder_nfi.count, counts[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].lazy_nfi.count, counts[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].frozen_nfi.hops, frozen_hops[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].reorder_nfi.hops, reorder_hops[t]) << "step " << t;
    EXPECT_EQ(r.steps[t].lazy_nfi.hops, lazy_hops[t]) << "step " << t;
  }
  const DynamicsStepResult& last = r.steps.back();
  EXPECT_EQ(last.frozen_ffi.total().hops, 41792u);
  EXPECT_EQ(last.reorder_ffi.total().hops, 40604u);
  EXPECT_EQ(last.lazy_ffi.total().hops, 40712u);
  EXPECT_EQ(last.frozen_ffi.total().count, 45290u);
  EXPECT_EQ(last.reorder_ffi.total().count, 45290u);
  EXPECT_EQ(last.lazy_ffi.total().count, 45290u);
  EXPECT_EQ(last.lazy_repartitions, 2u);
  EXPECT_DOUBLE_EQ(last.frozen_displaced, 0.034);
}

TEST(Golden, SamplerFirstParticlesAreFrozen) {
  // The exact first three particles of each paper distribution for seed
  // 2024 at level 8 — freezing the whole RNG + rejection pipeline.
  dist::SampleConfig cfg;
  cfg.count = 3;
  cfg.level = 8;
  cfg.seed = 2024;
  const auto u = dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  const auto n = dist::sample_particles<2>(dist::DistKind::kNormal, cfg);
  const auto e =
      dist::sample_particles<2>(dist::DistKind::kExponential, cfg);
  ASSERT_EQ(u.size(), 3u);
  ASSERT_EQ(n.size(), 3u);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(u[0], make_point(149, 100));
  EXPECT_EQ(u[1], make_point(230, 150));
  EXPECT_EQ(u[2], make_point(232, 140));
  EXPECT_EQ(n[0], make_point(86, 161));
  EXPECT_EQ(n[1], make_point(108, 116));
  EXPECT_EQ(n[2], make_point(106, 121));
  EXPECT_EQ(e[0], make_point(48, 83));
  EXPECT_EQ(e[1], make_point(9, 47));
  EXPECT_EQ(e[2], make_point(8, 53));
}

}  // namespace
}  // namespace sfc::core
