// Study coverage for the extended registries: every implemented curve
// and distribution must flow through run_study and run_anns_study, and
// invalid configurations must fail loudly rather than silently.
#include <gtest/gtest.h>

#include "core/study.hpp"

namespace sfc::core {
namespace {

/// Tables I/II design (both curve roles swept) on a small torus.
Study combination_study(std::size_t particles, unsigned level,
                        topo::Rank procs, std::uint64_t seed) {
  Study s;
  s.particles = particles;
  s.level = level;
  s.seed = seed;
  s.radius = 1;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {procs};
  return s;
}

TEST(ExtendedStudy, AllSevenCurvesThroughCombinationStudy) {
  Study s = combination_study(800, 6, 64, 5);
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves.assign(std::begin(kAllCurves), std::end(kAllCurves));
  s.processor_curves = s.particle_curves;
  const StudyResult result = run_study(s);
  ASSERT_EQ(result.cells.size(), 7u * 7u);
  for (const AcdCell& cell : result.cells) {
    EXPECT_GT(cell.nfi_acd + cell.ffi_acd, 0.0);
  }
}

TEST(ExtendedStudy, MooreTracksHilbertClosely) {
  Study s = combination_study(2000, 7, 256, 6);
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMoore,
                       CurveKind::kRowMajor};
  s.processor_curves = s.particle_curves;
  const StudyResult result = run_study(s);
  const double hh = result.cell(0, 0, 0, 0, 0).nfi_acd;
  const double mm = result.cell(0, 1, 0, 1, 0).nfi_acd;
  const double rr = result.cell(0, 2, 0, 2, 0).nfi_acd;
  EXPECT_LT(std::abs(hh - mm), 0.35 * hh);  // the loop ~ the open curve
  EXPECT_GT(rr, 2.0 * std::max(hh, mm));
}

TEST(ExtendedStudy, ExtendedDistributionsThroughCombinationStudy) {
  Study s = combination_study(600, 6, 64, 7);
  s.distributions.assign(std::begin(dist::kExtendedDistributions),
                         std::end(dist::kExtendedDistributions));
  s.particle_curves = {CurveKind::kHilbert};
  s.processor_curves = s.particle_curves;
  const StudyResult result = run_study(s);
  const std::size_t dists = std::size(dist::kExtendedDistributions);
  ASSERT_EQ(result.cells.size(), dists);
  for (std::size_t d = 0; d < dists; ++d) {
    const AcdCell& cell = result.cell(d, 0, 0, 0, 0);
    EXPECT_GT(cell.nfi_acd + cell.ffi_acd, 0.0)
        << dist_name(s.distributions[d]);
  }
}

TEST(ExtendedStudy, InvalidTorusSizeThrows) {
  // Figure 7 design (processor counts swept, curves paired).
  Study s;
  s.particles = 200;
  s.level = 5;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert};
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {48};  // not a square power of two
  EXPECT_THROW(run_study(s), std::invalid_argument);
}

TEST(ExtendedStudy, AnnsStudyWithLargerRadiusAndAllCurves) {
  AnnsStudyConfig cfg;
  cfg.levels = {3, 4};
  cfg.radius = 4;
  cfg.curves.assign(std::begin(kAllCurves), std::end(kAllCurves));
  const auto result = run_anns_study(cfg);
  ASSERT_EQ(result.stats.size(), 7u);
  for (const auto& per_curve : result.stats) {
    for (const auto& s : per_curve) {
      EXPECT_GT(s.average, 0.0);
      EXPECT_GT(s.pairs, 0u);
    }
  }
}

TEST(ExtendedStudy, NfiOnlyAndFfiOnlyModesSkipTheOther) {
  Study s = combination_study(400, 5, 16, 8);
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kMorton};
  s.processor_curves = s.particle_curves;
  s.far_field = false;
  const StudyResult nfi_only = run_study(s);
  EXPECT_GT(nfi_only.cell(0, 0, 0, 0, 0).nfi_acd, 0.0);
  EXPECT_EQ(nfi_only.cell(0, 0, 0, 0, 0).ffi_acd, 0.0);
  s.far_field = true;
  s.near_field = false;
  const StudyResult ffi_only = run_study(s);
  EXPECT_EQ(ffi_only.cell(0, 0, 0, 0, 0).nfi_acd, 0.0);
  EXPECT_GT(ffi_only.cell(0, 0, 0, 0, 0).ffi_acd, 0.0);
}

TEST(ExtendedStudy, WeightedPartitionSameCommunicationsDifferentHops) {
  // The communication *set* depends only on the particles; the partition
  // moves the endpoints. A deliberately lopsided weighting must keep the
  // count and change the hops.
  dist::SampleConfig sample;
  sample.count = 1500;
  sample.level = 7;
  sample.seed = 9;
  const auto particles =
      dist::sample_particles<2>(dist::DistKind::kUniform, sample);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const AcdInstance<2> instance(particles, 7, *curve);
  const auto net =
      topo::make_topology<2>(topo::TopologyKind::kTorus, 64, curve.get());

  const fmm::Partition equal(instance.particles().size(), 64);
  std::vector<double> lopsided(instance.particles().size(), 1.0);
  for (std::size_t i = 0; i < lopsided.size() / 4; ++i) lopsided[i] = 50.0;
  const auto weighted = fmm::Partition::weighted(lopsided, 64);

  const auto a = instance.nfi(equal, *net, 1);
  const auto b = instance.nfi(weighted, *net, 1);
  EXPECT_EQ(a.count, b.count);
  EXPECT_NE(a.hops, b.hops);
}

}  // namespace
}  // namespace sfc::core
