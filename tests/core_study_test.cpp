// Paper-study tests at toy scale: result shapes, determinism, and the
// qualitative orderings the paper reports, each design written as the
// core::Study its bench runs (Tables I/II: both curve roles swept; Fig. 6:
// topologies swept, curves paired; Fig. 7: processor counts swept).
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sfc::core {
namespace {

/// Tables I/II design: the three paper distributions, every {particle
/// order x processor order} pair, one torus.
Study small_combination_study() {
  Study s;
  s.particles = 1500;
  s.level = 6;  // 64 x 64
  s.radius = 1;
  s.seed = 7;
  s.trials = 1;
  s.distributions.assign(dist::kAllDistributions,
                         dist::kAllDistributions + 3);
  s.processor_curves = s.particle_curves;  // full cross product
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {64};  // 8 x 8 torus
  return s;
}

/// Figure 6 design: every topology, the same SFC in both roles.
Study topology_study() {
  Study s;
  s.radius = 4;
  s.distributions = {dist::DistKind::kUniform};
  s.topologies.assign(topo::kAllTopologies, topo::kAllTopologies + 6);
  return s;
}

/// Figure 7 design: processor counts swept on a torus, curves paired.
Study scaling_study() {
  Study s;
  s.radius = 1;
  s.distributions = {dist::DistKind::kUniform};
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {64, 256, 1024, 4096, 16384, 65536};
  return s;
}

TEST(CombinationStudy, ShapeMatchesConfig) {
  const Study s = small_combination_study();
  const StudyResult result = run_study(s);
  ASSERT_EQ(result.cells.size(), 3u * 4u * 4u);
  ASSERT_EQ(result.cells.size(), s.cell_count());
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t rc = 0; rc < 4; ++rc) {
      for (std::size_t pc = 0; pc < 4; ++pc) {
        const AcdCell& cell = result.cell(d, pc, 0, rc, 0);
        EXPECT_GE(cell.nfi_acd, 0.0);
        EXPECT_GE(cell.ffi_acd, 0.0);
      }
    }
  }
}

TEST(CombinationStudy, DeterministicAcrossRuns) {
  const StudyResult a = run_study(small_combination_study());
  const StudyResult b = run_study(small_combination_study());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.cells[i].nfi_acd, b.cells[i].nfi_acd);
    ASSERT_DOUBLE_EQ(a.cells[i].ffi_acd, b.cells[i].ffi_acd);
  }
}

TEST(CombinationStudy, RowRowPairingIsWorstDiagonalCell) {
  // Table I shape: among the same-SFC pairings (the diagonal), Row/Row is
  // by far the worst; the paper's full dominance over every off-diagonal
  // cell emerges at paper scale (verified by bench/table1_nfi) — at toy
  // scale we assert the diagonal ordering plus a wide Hilbert margin.
  Study s = small_combination_study();
  s.particles = 3000;
  s.level = 7;
  s.proc_counts = {256};
  const StudyResult result = run_study(s);
  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    // index 3 = Row in both curve roles
    const double row_row = result.cell(d, 3, 0, 3, 0).nfi_acd;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_GT(row_row, result.cell(d, k, 0, k, 0).nfi_acd)
          << "dist " << d << " diagonal " << k;
    }
    EXPECT_GT(row_row, 2.0 * result.cell(d, 0, 0, 0, 0).nfi_acd)
        << "dist " << d;
  }
}

TEST(CombinationStudy, HilbertProcessorRankingBeatsRowMajorOnAverage) {
  // Row-level comparison: averaged over the four particle orders, Hilbert
  // processor ranking beats row-major ranking for every distribution.
  Study s = small_combination_study();
  s.particles = 3000;
  s.level = 7;
  s.proc_counts = {256};
  const StudyResult result = run_study(s);
  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    double hilbert_row = 0, rowmajor_row = 0;
    for (std::size_t pc = 0; pc < 4; ++pc) {
      hilbert_row += result.cell(d, pc, 0, 0, 0).nfi_acd;
      rowmajor_row += result.cell(d, pc, 0, 3, 0).nfi_acd;
    }
    EXPECT_LT(hilbert_row, rowmajor_row) << "dist " << d;
  }
}

TEST(CombinationStudy, ProgressCallbackFires) {
  Study s = small_combination_study();
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton};
  s.processor_curves = s.particle_curves;
  std::vector<StudyCellRef> refs;
  SweepOptions options;
  options.progress = [&](const StudyCellRef& ref, double) {
    refs.push_back(ref);
  };
  run_study(s, options);
  EXPECT_EQ(refs.size(), 4u);  // 2 x 2 combinations
}

TEST(TopologyStudy, ShapeAndBusIsWorst) {
  Study s = topology_study();
  s.particles = 1500;
  s.level = 6;
  s.proc_counts = {64};
  s.radius = 2;
  s.seed = 11;
  const StudyResult result = run_study(s);
  ASSERT_EQ(s.topologies.size(), 6u);
  ASSERT_EQ(result.cells.size(), 6u * 4u);

  // Fig. 6 shape: bus and ring are far worse than mesh/torus for the
  // recursive curves (column 0 = Hilbert). The hypercube's win over the
  // torus only materializes at large processor counts (its diameter is
  // log p vs sqrt p) and is checked by bench/fig6_topologies at scale.
  const double bus = result.cell(0, 0, 0, 0, 0).nfi_acd;
  const double ring = result.cell(0, 0, 0, 0, 1).nfi_acd;
  const double mesh = result.cell(0, 0, 0, 0, 2).nfi_acd;
  const double torus = result.cell(0, 0, 0, 0, 3).nfi_acd;
  EXPECT_GT(bus, torus);
  EXPECT_GT(ring, torus);
  EXPECT_LE(torus, mesh + 1e-12);  // wraparound can only help
}

TEST(TopologyStudy, QuadtreeStrongForFfi) {
  // Fig. 6(b): the quadtree is comparable to the hypercube for far-field
  // traffic (its layout mirrors the FFI structure).
  Study s = topology_study();
  s.particles = 2000;
  s.level = 6;
  s.proc_counts = {64};
  s.seed = 13;
  const StudyResult result = run_study(s);
  const double quadtree = result.cell(0, 0, 0, 0, 4).ffi_acd;
  const double bus = result.cell(0, 0, 0, 0, 0).ffi_acd;
  EXPECT_LT(quadtree, bus);
}

TEST(ScalingStudy, AcdGrowsWithProcessorCount) {
  Study s = scaling_study();
  s.particles = 2000;
  s.level = 6;
  s.proc_counts = {4, 16, 64, 256};
  s.seed = 17;
  const StudyResult result = run_study(s);
  ASSERT_EQ(s.particle_curves.size(), 4u);
  ASSERT_EQ(result.cells.size(), 4u * 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t p = 1; p < 4; ++p) {
      EXPECT_GT(result.cell(0, c, p, 0, 0).nfi_acd,
                result.cell(0, c, p - 1, 0, 0).nfi_acd)
          << "curve " << c << " step " << p;
    }
  }
}

TEST(ScalingStudy, HilbertBeatsRowMajorEverywhere) {
  Study s = scaling_study();
  s.particles = 2000;
  s.level = 6;
  s.proc_counts = {16, 64, 256};
  s.seed = 19;
  const StudyResult result = run_study(s);
  for (std::size_t p = 0; p < s.proc_counts.size(); ++p) {
    EXPECT_LT(result.cell(0, 0, p, 0, 0).nfi_acd,
              result.cell(0, 3, p, 0, 0).nfi_acd);
    EXPECT_LT(result.cell(0, 0, p, 0, 0).ffi_acd,
              result.cell(0, 3, p, 0, 0).ffi_acd);
  }
}

TEST(AnnsStudy, ShapeAndMonotonicity) {
  AnnsStudyConfig cfg;
  cfg.levels = {2, 3, 4, 5};
  const auto result = run_anns_study(cfg);
  ASSERT_EQ(result.stats.size(), 4u);
  for (const auto& per_curve : result.stats) {
    ASSERT_EQ(per_curve.size(), 4u);
    for (std::size_t l = 1; l < per_curve.size(); ++l) {
      EXPECT_GT(per_curve[l].average, per_curve[l - 1].average);
    }
  }
}

TEST(CombinationStudy, TrialStatisticsAreConsistent) {
  Study s = small_combination_study();
  s.particle_curves = {CurveKind::kHilbert};
  s.processor_curves = s.particle_curves;
  s.distributions = {dist::DistKind::kUniform};
  s.trials = 4;
  const StudyResult result = run_study(s);
  const AcdCellStats& stats = result.cell_stats(0, 0, 0, 0, 0);
  EXPECT_EQ(stats.nfi.count(), 4u);
  EXPECT_EQ(stats.ffi.count(), 4u);
  // The stored cell value is exactly the across-trial mean.
  EXPECT_NEAR(result.cell(0, 0, 0, 0, 0).nfi_acd, stats.nfi.mean(), 1e-12);
  EXPECT_NEAR(result.cell(0, 0, 0, 0, 0).ffi_acd, stats.ffi.mean(), 1e-12);
  // Independent trials differ, so the spread is nonzero but small.
  EXPECT_GT(stats.nfi.stddev(), 0.0);
  EXPECT_LT(stats.nfi.ci95_halfwidth(), stats.nfi.mean());
}

TEST(AnnsStudy, TrialsAverageKeepsScale) {
  // Multi-trial combination runs stay in the same ballpark as single-trial
  // (averaging, not accumulation).
  Study s = small_combination_study();
  s.particle_curves = {CurveKind::kHilbert};
  s.processor_curves = s.particle_curves;
  s.distributions = {dist::DistKind::kUniform};
  const StudyResult one = run_study(s);
  s.trials = 3;
  const StudyResult three = run_study(s);
  const double a = one.cell(0, 0, 0, 0, 0).nfi_acd;
  const double b = three.cell(0, 0, 0, 0, 0).nfi_acd;
  EXPECT_NEAR(a, b, a * 0.5);
}

}  // namespace
}  // namespace sfc::core
