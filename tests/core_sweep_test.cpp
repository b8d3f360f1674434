// Sweep-engine tests at toy scale: the artifact-reusing path must be
// bit-identical to evaluating every cell from scratch, the hit/miss
// counters must match the grid combinatorics exactly (they are counted
// while the plan is built, in grid order), and the serial schedule must
// free each row's artifacts before the next row starts.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace sfc::core {
namespace {

// --------------------------------------------------------------- fixtures

/// Table I in miniature: full {particle x processor} curve cross product,
/// two distributions, one torus, both interaction models.
Study toy_combination_study() {
  Study s;
  s.name = "toy_combination";
  s.particles = 900;
  s.level = 5;  // 32 x 32
  s.radius = 1;
  s.seed = 11;
  s.trials = 1;
  s.distributions = {dist::DistKind::kUniform, dist::DistKind::kNormal};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton,
                       CurveKind::kRowMajor};
  s.processor_curves = s.particle_curves;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {64};
  return s;
}

/// Figure 6 in miniature: paired curves, a topology axis that mixes
/// ranked (mesh, torus) and naturally-labeled (quadtree, hypercube)
/// networks.
Study toy_topology_study() {
  Study s;
  s.name = "toy_topology";
  s.particles = 900;
  s.level = 5;
  s.radius = 1;
  s.seed = 11;
  s.trials = 1;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton,
                       CurveKind::kRowMajor};
  s.processor_curves.clear();  // paired mode
  s.topologies = {topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
                  topo::TopologyKind::kQuadtree,
                  topo::TopologyKind::kHypercube};
  s.proc_counts = {64};
  return s;
}

void expect_bit_identical(const StudyResult& a, const StudyResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    // Bit-level equality, not tolerance: folds sum exact integers and the
    // float accumulation order is the same on both paths.
    EXPECT_EQ(std::memcmp(&a.cells[i], &b.cells[i], sizeof(AcdCell)), 0)
        << "cell " << i << ": (" << a.cells[i].nfi_acd << ", "
        << a.cells[i].ffi_acd << ") vs (" << b.cells[i].nfi_acd << ", "
        << b.cells[i].ffi_acd << ")";
  }
}

// ------------------------------------------------------------ equivalence

TEST(SweepEngine, CombinationGridMatchesDirectBitForBit) {
  const Study s = toy_combination_study();
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, TopologyGridMatchesDirectBitForBit) {
  const Study s = toy_topology_study();
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, MultiTrialMatchesDirectBitForBit) {
  Study s = toy_combination_study();
  s.trials = 3;
  s.distributions = {dist::DistKind::kExponential};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  const auto a = run_study(s, reuse);
  const auto b = run_study(s, direct);
  expect_bit_identical(a, b);
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.stats[i].nfi.ci95_halfwidth(),
                     b.stats[i].nfi.ci95_halfwidth());
    EXPECT_DOUBLE_EQ(a.stats[i].ffi.ci95_halfwidth(),
                     b.stats[i].ffi.ci95_halfwidth());
  }
}

TEST(SweepEngine, SparseHistogramsMatchDirectBitForBit) {
  // p = 4096 puts the histogram builder on its source-row path — the
  // paper-scale (p = 65536) regime — so the canonical-order enumeration
  // must reproduce the direct path bit-for-bit, including ranks with no
  // particles (p greatly exceeds n here).
  Study s = toy_combination_study();
  s.distributions = {dist::DistKind::kUniform};
  s.proc_counts = {4096};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, ThreadedFoldsMatchSerialBitForBit) {
  const Study s = toy_topology_study();
  util::ThreadPool pool(4);
  const SweepOptions threaded{&pool, true, {}};
  const SweepOptions serial{nullptr, true, {}};
  expect_bit_identical(run_study(s, threaded), run_study(s, serial));
}

TEST(SweepEngine, ScalingAxisMatchesDirectBitForBit) {
  Study s = toy_topology_study();
  s.name = "toy_scaling";
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {16, 64, 256};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

// ---------------------------------------------------- artifact accounting

TEST(SweepEngine, CombinationGridCacheCounts) {
  // 2 distributions x 3 particle curves x 3 processor curves x 1 torus:
  //   sample:    1 build per distribution, consumed once by canonical
  //   canonical: cell-sorted copy + grid, 1 per distribution
  //   ordering:  rank table per (distribution, curve)
  //   instance:  every (distribution, curve) pair is distinct (FFI tree)
  //   histograms: built once per (distribution, particle curve), reused
  //              across the 3 processor orders
  //   topology:  the torus is ranked, so one build per processor curve,
  //              shared across distributions and particle curves
  //   fold:      one per cell per enabled model, never shared
  const Study s = toy_combination_study();
  const auto run = run_study(s, SweepOptions{});
  const SweepStats& st = run.sweep;
  EXPECT_EQ(st.stage(SweepStage::kSample).misses, 2u);
  EXPECT_EQ(st.stage(SweepStage::kSample).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).misses, 2u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).hits, 12u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).hits, 12u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).hits, 15u);
  EXPECT_EQ(st.stage(SweepStage::kFold).misses, 36u);
  EXPECT_EQ(st.stage(SweepStage::kFold).hits, 0u);
  EXPECT_GT(st.peak_bytes, 0u);
  EXPECT_LE(st.peak_bytes, st.bytes);
}

TEST(SweepEngine, TopologyGridCacheCounts) {
  // 3 paired curves x 4 topologies: histograms are topology-independent
  // (1 build + 3 hits per curve); mesh and torus embed an SFC ranking so
  // they rebuild per curve, while quadtree and hypercube are shared.
  const Study s = toy_topology_study();
  const auto run = run_study(s, SweepOptions{});
  const SweepStats& st = run.sweep;
  EXPECT_EQ(st.stage(SweepStage::kSample).misses, 1u);
  EXPECT_EQ(st.stage(SweepStage::kSample).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).misses, 1u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).hits, 9u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).hits, 9u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).misses, 8u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).hits, 4u);
  EXPECT_EQ(st.stage(SweepStage::kFold).misses, 24u);
}

TEST(SweepEngine, DirectPathReportsNoCacheTraffic) {
  const Study s = toy_topology_study();
  SweepOptions direct;
  direct.reuse = false;
  const auto run = run_study(s, direct);
  EXPECT_EQ(run.sweep.total_hits(), 0u);
  EXPECT_EQ(run.sweep.total_misses(), 0u);
  EXPECT_EQ(run.sweep.peak_bytes, 0u);
}

TEST(SweepEngine, SerialRowsFreeArtifactsBeforeTheNextRow) {
  // Four independent (distribution, trial) rows: run serially, each row
  // is folded and its artifacts freed before the next row's sample is
  // drawn, so at most one row (plus the shared topologies) is ever live.
  Study s = toy_topology_study();
  s.topologies = {topo::TopologyKind::kTorus};
  s.trials = 4;
  const auto run = run_study(s, SweepOptions{});
  EXPECT_GT(run.sweep.bytes, 0u);
  EXPECT_LE(run.sweep.peak_bytes, run.sweep.bytes / 2);
}

// ---------------------------------------------------------- result shape

TEST(SweepEngine, ProgressVisitsEveryCellInGridOrder) {
  Study s = toy_topology_study();
  s.trials = 2;
  std::vector<StudyCellRef> seen;
  SweepOptions options;
  options.progress = [&seen](const StudyCellRef& ref, double elapsed_ms) {
    EXPECT_GE(elapsed_ms, 0.0);
    seen.push_back(ref);
  };
  const auto run = run_study(s, options);
  ASSERT_EQ(seen.size(), s.cell_count() * s.trials);
  // Paired mode reports the particle curve as the processor curve.
  for (const StudyCellRef& ref : seen) {
    EXPECT_EQ(ref.processor_curve, ref.particle_curve);
  }
  // Grid order: topology is the innermost axis, trials outermost per
  // distribution — identical to the direct path's visit order.
  std::vector<StudyCellRef> direct_seen;
  options.reuse = false;
  options.progress = [&direct_seen](const StudyCellRef& ref, double) {
    direct_seen.push_back(ref);
  };
  run_study(s, options);
  ASSERT_EQ(direct_seen.size(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].distribution, direct_seen[i].distribution);
    EXPECT_EQ(seen[i].trial, direct_seen[i].trial);
    EXPECT_EQ(seen[i].particle_curve, direct_seen[i].particle_curve);
    EXPECT_EQ(seen[i].proc_count, direct_seen[i].proc_count);
    EXPECT_EQ(seen[i].topology, direct_seen[i].topology);
  }
}

TEST(SweepEngine, NearFieldOnlySkipsFfiStages) {
  Study s = toy_combination_study();
  s.far_field = false;
  const auto run = run_study(s, SweepOptions{});
  EXPECT_EQ(run.sweep.stage(SweepStage::kFfiHistogram).misses, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kFfiHistogram).hits, 0u);
  // Only the FFI tree walk needs a curve-sorted instance, so a
  // near-field-only study never builds one.
  EXPECT_EQ(run.sweep.stage(SweepStage::kInstance).misses, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kInstance).hits, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kFold).misses, 18u);
  for (const AcdCell& cell : run.cells) {
    EXPECT_EQ(cell.ffi_acd, 0.0);
    EXPECT_GT(cell.nfi_acd, 0.0);
  }
}

TEST(SweepEngine, ResultsAndOrderingIdenticalAcrossThreadCounts) {
  // The pool is a pure wall-clock lever: any thread count must reproduce
  // the serial run exactly — the result cells, the across-trial
  // statistics, the artifact counters, and the order in which cells are
  // reported to the progress sink.
  Study s = toy_combination_study();
  s.trials = 2;

  struct RunCapture {
    StudyResult result;
    std::vector<StudyCellRef> progress;
  };
  auto run_with = [&s](util::ThreadPool* pool) {
    RunCapture cap;
    SweepOptions options;
    options.pool = pool;
    options.progress = [&cap](const StudyCellRef& ref, double) {
      cap.progress.push_back(ref);
    };
    cap.result = run_study(s, options);
    return cap;
  };

  const RunCapture serial = run_with(nullptr);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const RunCapture threaded = run_with(&pool);
    expect_bit_identical(threaded.result, serial.result);
    for (std::size_t i = 0; i < serial.result.stats.size(); ++i) {
      EXPECT_EQ(threaded.result.stats[i].nfi.mean(),
                serial.result.stats[i].nfi.mean())
          << threads << " threads, stat " << i;
      EXPECT_EQ(threaded.result.stats[i].ffi.ci95_halfwidth(),
                serial.result.stats[i].ffi.ci95_halfwidth());
    }
    for (unsigned st = 0; st < kSweepStageCount; ++st) {
      EXPECT_EQ(threaded.result.sweep.stages[st].hits,
                serial.result.sweep.stages[st].hits)
          << threads << " threads, stage " << st;
      EXPECT_EQ(threaded.result.sweep.stages[st].misses,
                serial.result.sweep.stages[st].misses);
    }
    ASSERT_EQ(threaded.progress.size(), serial.progress.size())
        << threads << " threads";
    for (std::size_t i = 0; i < serial.progress.size(); ++i) {
      EXPECT_EQ(threaded.progress[i].distribution,
                serial.progress[i].distribution);
      EXPECT_EQ(threaded.progress[i].trial, serial.progress[i].trial);
      EXPECT_EQ(threaded.progress[i].particle_curve,
                serial.progress[i].particle_curve);
      EXPECT_EQ(threaded.progress[i].proc_count,
                serial.progress[i].proc_count);
      EXPECT_EQ(threaded.progress[i].processor_curve,
                serial.progress[i].processor_curve);
      EXPECT_EQ(threaded.progress[i].topology, serial.progress[i].topology);
    }
  }
}

TEST(SweepEngine, PooledRunRunsOnePoolTaskPerBuiltPlanNode) {
  // One level of parallelism: the pool runs plan nodes and nothing else.
  // A stage build that handed the pool to its kernel again (a chunked
  // NFI or FFI histogram at p = 1024, a threaded sort) would submit more
  // tasks than the plan has nodes. Topologies are built while planning,
  // on the coordinator, so they are not pool tasks.
  Study s = toy_topology_study();
  s.particles = 4000;
  s.level = 7;
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton};
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {1024};

  obs::Registry& registry = obs::Registry::instance();
  obs::Histogram& run_ns = registry.histogram("pool.run_ns");
  registry.set_enabled(true);
  run_ns.reset();
  util::ThreadPool pool(4);
  SweepOptions options;
  options.pool = &pool;
  const StudyResult run = run_study(s, options);
  // A worker records a task's run time after the task body returns, so
  // the last node's sample can land just after run_study's join.
  pool.wait_idle();
  const std::uint64_t tasks = run_ns.count();
  registry.set_enabled(false);

  // Every node is built (no store): one miss per node for the producer
  // stages, and one fold node per cell, which counts a miss per model.
  std::uint64_t nodes = 0;
  for (unsigned i = 0; i < kSweepStageCount; ++i) {
    const auto stage = static_cast<SweepStage>(i);
    if (stage == SweepStage::kTopology || stage == SweepStage::kFold) continue;
    nodes += run.sweep.stage(stage).misses;
  }
  EXPECT_EQ(run.sweep.stage(SweepStage::kFold).misses, 2 * s.cell_count());
  nodes += s.cell_count();
  // 1 sample, 1 canonical, and per curve an ordering, an instance, an
  // NFI and an FFI histogram, and a fold.
  EXPECT_EQ(nodes, 12u);
  EXPECT_EQ(tasks, nodes);
}

TEST(SweepEngine, DirectRunSubmitsNoPoolTasks) {
  // Without reuse there are no plan nodes, so the pool has nothing to
  // run: every NFI and FFI kernel runs serially on the calling thread.
  Study s = toy_topology_study();
  s.particles = 4000;
  s.level = 7;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {1024};

  obs::Registry& registry = obs::Registry::instance();
  obs::Histogram& run_ns = registry.histogram("pool.run_ns");
  registry.set_enabled(true);
  run_ns.reset();
  util::ThreadPool pool(4);
  SweepOptions options;
  options.reuse = false;
  options.pool = &pool;
  const StudyResult pooled = run_study(s, options);
  const std::uint64_t tasks = run_ns.count();
  registry.set_enabled(false);

  EXPECT_EQ(tasks, 0u);
  options.pool = nullptr;
  const StudyResult serial = run_study(s, options);
  ASSERT_EQ(pooled.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(pooled.cells[i].nfi_acd, serial.cells[i].nfi_acd) << i;
    EXPECT_EQ(pooled.cells[i].ffi_acd, serial.cells[i].ffi_acd) << i;
  }
}

TEST(SweepEngine, InvalidTorusSizeThrows) {
  Study s = toy_topology_study();
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {60};  // not a power of 4
  EXPECT_THROW(run_study(s, SweepOptions{}), std::invalid_argument);
  SweepOptions direct;
  direct.reuse = false;
  EXPECT_THROW(run_study(s, direct), std::invalid_argument);
}

TEST(SweepEngine, InvalidScalarParametersThrowBeforeAnyWork) {
  Study zero_trials = toy_topology_study();
  zero_trials.trials = 0;
  Study too_deep = toy_topology_study();
  too_deep.level = max_level<2>() + 1;
  Study too_dense = toy_topology_study();
  too_dense.level = 4;
  too_dense.particles = 257;  // a level-4 grid has 4^4 = 256 cells
  Study full = too_dense;
  full.particles = 256;  // exactly full is valid
  util::ThreadPool pool(2);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    for (const bool reuse : {true, false}) {
      SweepOptions options;
      options.pool = p;
      options.reuse = reuse;
      std::size_t cells_done = 0;
      options.progress = [&](const StudyCellRef&, double) { ++cells_done; };
      for (const Study* s : {&zero_trials, &too_deep, &too_dense}) {
        EXPECT_THROW(run_study(*s, options), std::invalid_argument)
            << "trials " << s->trials << " level " << s->level
            << " particles " << s->particles << " reuse " << reuse
            << " pool " << (p != nullptr);
      }
      EXPECT_EQ(cells_done, 0u);
      EXPECT_NO_THROW(run_study(full, options));
      EXPECT_EQ(cells_done, full.cell_count());
    }
  }
}

}  // namespace
}  // namespace sfc::core
