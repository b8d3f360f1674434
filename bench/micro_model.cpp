// micro_model — google-benchmark timings for the model engines
// themselves: sampling, instance construction (sort + occupancy + cell
// tree), and the NFI/FFI reduction passes. These are the numbers that
// bound how large a study a given machine can afford.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/acd.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "util/simd.hpp"

namespace {

using namespace sfc;

constexpr unsigned kLevel = 9;  // 512 x 512
constexpr std::size_t kParticles = 50000;
constexpr topo::Rank kProcs = 4096;

std::vector<Point2> particles_for(dist::DistKind kind) {
  dist::SampleConfig cfg;
  cfg.count = kParticles;
  cfg.level = kLevel;
  cfg.seed = 1;
  return dist::sample_particles<2>(kind, cfg);
}

void BM_Sample(benchmark::State& state, dist::DistKind kind) {
  dist::SampleConfig cfg;
  cfg.count = kParticles;
  cfg.level = kLevel;
  for (auto _ : state) {
    cfg.seed = static_cast<std::uint64_t>(state.iterations());
    benchmark::DoNotOptimize(dist::sample_particles<2>(kind, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParticles));
}

void BM_InstanceBuild(benchmark::State& state, CurveKind kind) {
  const auto particles = particles_for(dist::DistKind::kUniform);
  const auto curve = make_curve<2>(kind);
  for (auto _ : state) {
    const core::AcdInstance<2> instance(particles, kLevel, *curve);
    benchmark::DoNotOptimize(&instance);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParticles));
}

void BM_NfiPass(benchmark::State& state, unsigned radius) {
  const auto particles = particles_for(dist::DistKind::kUniform);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(particles, kLevel, *curve);
  const fmm::Partition part(instance.particles().size(), kProcs);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kProcs, curve.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.nfi(part, *net, radius));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParticles));
}

// Acceptance benchmarks for the rank-pair aggregation fast path: the
// 2^10-level uniform scenario with p = 256, timing the aggregated
// nfi_totals/ffi_totals against their *_direct references. Items are
// communication events, so benchmark output is directly ns/pair.
constexpr unsigned kAggLevel = 10;  // 1024 x 1024
constexpr std::size_t kAggParticles = 100000;
constexpr topo::Rank kAggProcs = 256;

const core::AcdInstance<2>& agg_instance() {
  static const core::AcdInstance<2> instance = [] {
    dist::SampleConfig cfg;
    cfg.count = kAggParticles;
    cfg.level = kAggLevel;
    cfg.seed = 1;
    const auto curve = make_curve<2>(CurveKind::kHilbert);
    return core::AcdInstance<2>(
        dist::sample_particles<2>(dist::DistKind::kUniform, cfg), kAggLevel,
        *curve);
  }();
  return instance;
}

void BM_NfiAggregated(benchmark::State& state, unsigned radius) {
  const auto& instance = agg_instance();
  const fmm::Partition part(instance.particles().size(), kAggProcs);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kAggProcs, curve.get());
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto totals = fmm::nfi_totals<2>(instance.particles(),
                                           instance.grid(), part, *net,
                                           radius);
    pairs = totals.count;
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}

/// BM_NfiAggregated on the portable table: the half-window scan probes
/// cells one at a time instead of compacting occupied ids 8 lanes at a
/// time — the baseline for the nfi simd_speedup column.
void BM_NfiAggregatedScalar(benchmark::State& state, unsigned radius) {
  const util::simd::ScopedForceScalar scalar;
  BM_NfiAggregated(state, radius);
}

void BM_NfiDirect(benchmark::State& state, unsigned radius) {
  const auto& instance = agg_instance();
  const fmm::Partition part(instance.particles().size(), kAggProcs);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kAggProcs, curve.get());
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto totals = fmm::nfi_totals_direct<2>(instance.particles(),
                                                  instance.grid(), part,
                                                  *net, radius);
    pairs = totals.count;
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}

// The NFI build as the Table I sweep calls it, at the paper's default
// p = 65536, where the histogram builder takes its source-row path. A
// 250k uniform sample at level 10 in row-major cell order (the sweep's
// canonical copy), owners from its Hilbert ranks, r = 1. Items are
// events, so the output is ns/event.
constexpr std::size_t kSparseParticles = 250000;
constexpr topo::Rank kSparseProcs = 65536;

void BM_NfiHistogramSparse(benchmark::State& state) {
  dist::SampleConfig cfg;
  cfg.count = kSparseParticles;
  cfg.level = kAggLevel;
  cfg.seed = 1;
  std::vector<Point2> canonical =
      dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  std::sort(canonical.begin(), canonical.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, kAggLevel) < pack(b, kAggLevel);
            });
  const fmm::OccupancyGrid<2> grid(canonical, kAggLevel);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  std::vector<std::uint32_t> by_key(canonical.size());
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return curve->index(canonical[a], kAggLevel) <
                     curve->index(canonical[b], kAggLevel);
            });
  const std::vector<topo::Rank> by_rank =
      fmm::Partition(canonical.size(), kSparseProcs).owner_table();
  std::vector<topo::Rank> owners(canonical.size());
  for (std::size_t k = 0; k < by_key.size(); ++k) {
    owners[by_key[k]] = by_rank[k];
  }
  const auto build = [&] {
    const core::RankPairAccumulator hist = fmm::nfi_histogram_owners<2>(
        canonical, grid, owners, kSparseProcs, 1);
    hist.seal();  // what the sweep stores: the compacted pair list
    return hist;
  };
  const std::uint64_t events = build().events();
  for (auto _ : state) {
    const core::RankPairAccumulator hist = build();
    benchmark::DoNotOptimize(&hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}

// The FFI build at Table II's shape, the counterpart of
// BM_NfiHistogramSparse: the same 250k uniform sample at level 10 in
// Hilbert order, p = 65536, both families. Items are events (the
// interpolation plus the interaction events), so the output is ns/event.
void BM_FfiHistogramSparse(benchmark::State& state) {
  dist::SampleConfig cfg;
  cfg.count = kSparseParticles;
  cfg.level = kAggLevel;
  cfg.seed = 1;
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(
      dist::sample_particles<2>(dist::DistKind::kUniform, cfg), kAggLevel,
      *curve);
  const fmm::Partition part(instance.particles().size(), kSparseProcs);
  const auto build = [&] {
    return fmm::ffi_histograms<2>(instance.tree(), part);
  };
  const fmm::FfiHistograms first = build();
  const std::uint64_t events =
      first.interpolation.events() + first.interaction.events();
  for (auto _ : state) {
    const fmm::FfiHistograms hist = build();
    benchmark::DoNotOptimize(&hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}

void BM_FfiAggregated(benchmark::State& state) {
  const auto& instance = agg_instance();
  const fmm::Partition part(instance.particles().size(), kAggProcs);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kAggProcs, curve.get());
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto totals = fmm::ffi_totals<2>(instance.tree(), part, *net);
    pairs = totals.total().count;
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}

void BM_FfiDirect(benchmark::State& state) {
  const auto& instance = agg_instance();
  const fmm::Partition part(instance.particles().size(), kAggProcs);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kAggProcs, curve.get());
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto totals = fmm::ffi_totals_direct<2>(instance.tree(), part,
                                                  *net);
    pairs = totals.total().count;
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs));
}

void BM_FfiPass(benchmark::State& state) {
  const auto particles = particles_for(dist::DistKind::kUniform);
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(particles, kLevel, *curve);
  const fmm::Partition part(instance.particles().size(), kProcs);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                          kProcs, curve.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.ffi(part, *net));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(instance.tree().total_cells()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Sample, uniform, sfc::dist::DistKind::kUniform);
BENCHMARK_CAPTURE(BM_Sample, normal, sfc::dist::DistKind::kNormal);
BENCHMARK_CAPTURE(BM_Sample, exponential,
                  sfc::dist::DistKind::kExponential);

BENCHMARK_CAPTURE(BM_InstanceBuild, hilbert, sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_InstanceBuild, morton, sfc::CurveKind::kMorton);

BENCHMARK_CAPTURE(BM_NfiPass, r1, 1u);
BENCHMARK_CAPTURE(BM_NfiPass, r4, 4u);

BENCHMARK(BM_FfiPass);

BENCHMARK_CAPTURE(BM_NfiAggregated, r1, 1u);
BENCHMARK_CAPTURE(BM_NfiAggregated, r4, 4u);
BENCHMARK_CAPTURE(BM_NfiAggregatedScalar, r4, 4u);
BENCHMARK_CAPTURE(BM_NfiDirect, r1, 1u);
BENCHMARK_CAPTURE(BM_NfiDirect, r4, 4u);
BENCHMARK(BM_FfiAggregated);
BENCHMARK(BM_FfiDirect);
BENCHMARK(BM_NfiHistogramSparse);
BENCHMARK(BM_FfiHistogramSparse);

// Custom main so the JSON context records the dispatched ISA (see
// micro_curves.cpp).
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd", sfc::util::simd::isa_name(sfc::util::simd::active_isa()));
  benchmark::AddCustomContext(
      "simd_compiled",
      sfc::util::simd::isa_name(sfc::util::simd::compiled_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
