// micro_curves — google-benchmark timings for the encode and ordering
// hot paths PR 5 rebuilt: per-point virtual index() against the batched
// index_batch kernels for every 2-D curve (ns/point), and the full
// ordering stage — key computation plus argsort — comparing the old
// shape (one virtual call per particle, comparison argsort) against the
// shipped shape (one batched call, stable LSD radix argsort). Items are
// points, so benchmark output is directly ns/point; bench_to_json.py
// lifts the per-curve ratios and the ordering speedup into
// BENCH_acd.json and gates regressions on them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "distribution/distribution.hpp"
#include "sfc/curve.hpp"
#include "util/radix_sort.hpp"
#include "util/simd.hpp"

namespace {

using namespace sfc;

// The acceptance scenario: level 10 (1024 x 1024), 100k particles — the
// same cell the sweep and aggregation benches pin.
constexpr unsigned kLevel = 10;
constexpr std::size_t kParticles = 100000;

const std::vector<Point2>& bench_points() {
  static const std::vector<Point2> pts = [] {
    dist::SampleConfig cfg;
    cfg.count = kParticles;
    cfg.level = kLevel;
    cfg.seed = 1;
    return dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
  }();
  return pts;
}

void BM_EncodePerPoint(benchmark::State& state, CurveKind kind) {
  const auto curve = make_curve<2>(kind);
  const auto& pts = bench_points();
  std::vector<std::uint64_t> keys(pts.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      keys[i] = curve->index(pts[i], kLevel);
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}

void BM_EncodeBatched(benchmark::State& state, CurveKind kind) {
  const auto curve = make_curve<2>(kind);
  const auto& pts = bench_points();
  std::vector<std::uint64_t> keys(pts.size());
  for (auto _ : state) {
    curve->index_batch(pts.data(), keys.data(), pts.size(), kLevel);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}

/// BM_EncodeBatched with the dispatcher pinned to the portable table:
/// the per-ISA baseline column. The simd_speedup ratios in
/// BENCH_acd.json divide this row by the dispatched one, so both come
/// from the same binary and process.
void BM_EncodeBatchedScalar(benchmark::State& state, CurveKind kind) {
  const util::simd::ScopedForceScalar scalar;
  BM_EncodeBatched(state, kind);
}

/// The ordering stage as it shipped before this change: one virtual
/// index() per particle, then a comparison argsort (std::stable_sort on
/// (key, index) pairs — the tie-break contract the radix sort preserves).
void BM_OrderVirtualStableSort(benchmark::State& state, CurveKind kind) {
  const auto curve = make_curve<2>(kind);
  const auto& pts = bench_points();
  std::vector<std::uint32_t> rank(pts.size());
  std::vector<util::KeyIndex> items(pts.size());  // see BM_OrderBatchedRadix
  for (auto _ : state) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      items[i] = util::KeyIndex{curve->index(pts[i], kLevel),
                                static_cast<std::uint32_t>(i)};
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const util::KeyIndex& a, const util::KeyIndex& b) {
                       return a.key < b.key;
                     });
    for (std::uint32_t k = 0; k < items.size(); ++k) {
      rank[items[k].index] = k;
    }
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}

/// The ordering stage as the sweep engine now runs it: one batched
/// encode for the whole sample, then a serial stable LSD radix argsort
/// (sweep.cpp make_ordering's beyond-dense path — at level 10/100k the
/// 4^level grid is 10x the sample, so this is the path that runs).
void BM_OrderBatchedRadix(benchmark::State& state, CurveKind kind) {
  const auto curve = make_curve<2>(kind);
  const auto& pts = bench_points();
  // Every buffer lives outside the timed loop: a fresh multi-MB vector
  // per iteration is mmapped and faulted in again each time, and the
  // bench would time the page faults instead of the kernel.
  std::vector<std::uint64_t> keys(pts.size());
  std::vector<std::uint32_t> rank(pts.size());
  std::vector<util::KeyIndex> items(pts.size());
  for (auto _ : state) {
    curve->index_batch(pts.data(), keys.data(), pts.size(), kLevel);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      items[i] = util::KeyIndex{keys[i], static_cast<std::uint32_t>(i)};
    }
    util::radix_sort_pairs(items);
    for (std::uint32_t k = 0; k < items.size(); ++k) {
      rank[items[k].index] = k;
    }
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}

/// BM_OrderBatchedRadix on the portable table: encode and sort pre-scan
/// both fall back to their scalar loops.
void BM_OrderBatchedRadixScalar(benchmark::State& state, CurveKind kind) {
  const util::simd::ScopedForceScalar scalar;
  BM_OrderBatchedRadix(state, kind);
}

}  // namespace

BENCHMARK_CAPTURE(BM_EncodePerPoint, hilbert, sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_EncodeBatched, hilbert, sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_EncodePerPoint, morton, sfc::CurveKind::kMorton);
BENCHMARK_CAPTURE(BM_EncodeBatched, morton, sfc::CurveKind::kMorton);
BENCHMARK_CAPTURE(BM_EncodePerPoint, gray, sfc::CurveKind::kGray);
BENCHMARK_CAPTURE(BM_EncodeBatched, gray, sfc::CurveKind::kGray);
BENCHMARK_CAPTURE(BM_EncodePerPoint, rowmajor, sfc::CurveKind::kRowMajor);
BENCHMARK_CAPTURE(BM_EncodeBatched, rowmajor, sfc::CurveKind::kRowMajor);
BENCHMARK_CAPTURE(BM_EncodePerPoint, snake, sfc::CurveKind::kSnake);
BENCHMARK_CAPTURE(BM_EncodeBatched, snake, sfc::CurveKind::kSnake);
BENCHMARK_CAPTURE(BM_EncodePerPoint, moore, sfc::CurveKind::kMoore);
BENCHMARK_CAPTURE(BM_EncodeBatched, moore, sfc::CurveKind::kMoore);

// Per-ISA baseline columns for the curves with SIMD kernel variants
// (rowmajor/snake dispatch nothing; their scalar row would equal the
// dispatched one).
BENCHMARK_CAPTURE(BM_EncodeBatchedScalar, hilbert, sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_EncodeBatchedScalar, morton, sfc::CurveKind::kMorton);
BENCHMARK_CAPTURE(BM_EncodeBatchedScalar, gray, sfc::CurveKind::kGray);
BENCHMARK_CAPTURE(BM_EncodeBatchedScalar, moore, sfc::CurveKind::kMoore);

BENCHMARK_CAPTURE(BM_OrderVirtualStableSort, hilbert,
                  sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_OrderBatchedRadix, hilbert, sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_OrderVirtualStableSort, morton, sfc::CurveKind::kMorton);
BENCHMARK_CAPTURE(BM_OrderBatchedRadix, morton, sfc::CurveKind::kMorton);
BENCHMARK_CAPTURE(BM_OrderBatchedRadixScalar, hilbert,
                  sfc::CurveKind::kHilbert);
BENCHMARK_CAPTURE(BM_OrderBatchedRadixScalar, morton,
                  sfc::CurveKind::kMorton);

// Custom main instead of BENCHMARK_MAIN so every JSON document carries
// the dispatched ISA in its context block — bench_to_json.py copies it
// into the build-provenance stamp that gates cross-machine comparisons.
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
