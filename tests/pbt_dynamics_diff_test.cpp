// Differential properties of the incremental ACD engine (DynamicAcd).
// The retract/update/assert delta algebra must reproduce a full
// recompute of the frozen assignment *bit-identically* after every move
// batch — across curves, topologies, move patterns (drift, teleport,
// swap, boundary churn), serial vs threaded application, lazy
// re-partitioning, and both dimensions. The oracles are the brute-force
// definitional implementations in tests/oracles/; the suite closes with
// the injected-bug acceptance test: a deliberately skipped stale
// subtraction must be caught and shrunk to a minimal move batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/dynamic_acd.hpp"
#include "core/totals.hpp"
#include "fmm/ffi.hpp"
#include "oracles/oracles.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "util/rng.hpp"

namespace sfc::pbt {
namespace {

// ----------------------------------------------------------- move batches

/// The dynamics the differential exercises. A batch is *specified* by
/// (pattern, seed, count) and resolved against the engine's evolving
/// particle state right before application, so every spec stays a valid
/// move set no matter what earlier batches did.
enum class MovePattern : std::uint8_t {
  kDrift = 0,     // one-cell steps, the bench's dynamics
  kTeleport = 1,  // long jumps to random empty cells
  kSwap = 2,      // pairs exchange cells (displacement chains)
  kChurn = 3,     // one-cell steps that cross a parent-cell boundary
};

const char* pattern_name(MovePattern p) {
  switch (p) {
    case MovePattern::kDrift:
      return "drift";
    case MovePattern::kTeleport:
      return "teleport";
    case MovePattern::kSwap:
      return "swap";
    case MovePattern::kChurn:
      return "churn";
  }
  return "?";
}

struct BatchSpec {
  MovePattern pattern = MovePattern::kDrift;
  std::uint64_t seed = 0;
  std::uint32_t count = 1;  // movers (or swap pairs) attempted
};

std::ostream& operator<<(std::ostream& os, const BatchSpec& b) {
  return os << pattern_name(b.pattern) << "(count=" << b.count
            << ", seed=" << b.seed << ")";
}

/// Deterministically turn a spec into a valid move batch for the given
/// positions: indices distinct, targets on-grid, final cells distinct
/// (candidates are validated against an evolving occupancy set, exactly
/// like core::drift_moves).
template <int D>
std::vector<core::ParticleMove<D>> resolve_batch(
    const BatchSpec& spec, const std::vector<Point<D>>& positions,
    unsigned level) {
  const std::size_t n = positions.size();
  std::vector<core::ParticleMove<D>> moves;
  if (n == 0) return moves;
  if (spec.pattern == MovePattern::kDrift) {
    const double fraction =
        static_cast<double>(spec.count) / static_cast<double>(n);
    return core::drift_moves<D>(positions, level, spec.seed, /*step=*/0,
                                fraction);
  }
  util::Xoshiro256pp rng(util::substream_seed(spec.seed, 0xD14Aull));
  const std::int64_t side = std::int64_t{1} << level;
  std::unordered_set<std::uint64_t> occupied;
  occupied.reserve(n * 2);
  for (const Point<D>& p : positions) occupied.insert(pack(p, level));
  std::unordered_set<std::uint32_t> used;
  switch (spec.pattern) {
    case MovePattern::kDrift:
      break;  // handled above
    case MovePattern::kTeleport: {
      for (std::uint32_t k = 0; k < spec.count; ++k) {
        const auto i = static_cast<std::uint32_t>(util::bounded_u64(rng, n));
        Point<D> to{};
        for (int d = 0; d < D; ++d) {
          to[d] = static_cast<std::uint32_t>(
              util::bounded_u64(rng, static_cast<std::uint64_t>(side)));
        }
        if (used.count(i) != 0) continue;
        if (!occupied.insert(pack(to, level)).second) continue;
        occupied.erase(pack(positions[i], level));
        used.insert(i);
        moves.push_back({i, to});
      }
      break;
    }
    case MovePattern::kSwap: {
      // Each accepted pair exchanges cells: the batch's final cells are
      // a permutation of current ones, valid only because all movers
      // vacate before any fills.
      for (std::uint32_t k = 0; k < spec.count; ++k) {
        const auto i = static_cast<std::uint32_t>(util::bounded_u64(rng, n));
        const auto j = static_cast<std::uint32_t>(util::bounded_u64(rng, n));
        if (i == j || used.count(i) != 0 || used.count(j) != 0) continue;
        used.insert(i);
        used.insert(j);
        moves.push_back({i, positions[j]});
        moves.push_back({j, positions[i]});
      }
      break;
    }
    case MovePattern::kChurn: {
      // A one-cell step chosen to cross the particle's parent-cell
      // boundary, so the touched ancestor chains extend past the finest
      // level — the regime where stale owner caching would show.
      for (std::uint32_t k = 0; k < spec.count; ++k) {
        const auto i = static_cast<std::uint32_t>(util::bounded_u64(rng, n));
        const auto d = static_cast<int>(util::bounded_u64(rng, D));
        const Point<D>& p = positions[i];
        const std::int64_t o = (p[d] & 1u) ? 1 : -1;
        const std::int64_t v = static_cast<std::int64_t>(p[d]) + o;
        if (v < 0 || v >= side) continue;
        Point<D> to = p;
        to[d] = static_cast<std::uint32_t>(v);
        if (used.count(i) != 0) continue;
        if (!occupied.insert(pack(to, level)).second) continue;
        occupied.erase(pack(p, level));
        used.insert(i);
        moves.push_back({i, to});
      }
      break;
    }
  }
  return moves;
}

Gen<BatchSpec> batch_spec(std::uint32_t max_count) {
  return Gen<BatchSpec>{
      [max_count](Rand& r) {
        BatchSpec b;
        b.pattern = static_cast<MovePattern>(r.below(4));
        b.seed = r.below(1u << 20);
        b.count = static_cast<std::uint32_t>(r.between(1, max_count));
        return b;
      },
      [](const BatchSpec& b, std::vector<BatchSpec>& out) {
        std::vector<std::uint32_t> cands;
        shrink_integral_toward<std::uint32_t>(1, b.count, cands);
        for (const std::uint32_t c : cands) {
          out.push_back({b.pattern, b.seed, c});
        }
        // Simplify the dynamics: every pattern shrinks toward drift.
        if (b.pattern != MovePattern::kDrift) {
          out.push_back({MovePattern::kDrift, b.seed, b.count});
        }
        std::vector<std::uint64_t> seeds;
        shrink_integral_toward<std::uint64_t>(0, b.seed, seeds);
        for (const std::uint64_t s : seeds) {
          out.push_back({b.pattern, s, b.count});
        }
      }};
}

// ------------------------------------------------------------- case shape

/// One complete trajectory: an ACD instance plus a batch sequence.
struct DynCase {
  unsigned level = 2;
  std::vector<Point2> pts;
  CurveKind curve = CurveKind::kHilbert;
  TopoCase topo;
  unsigned radius = 1;
  fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
  std::vector<BatchSpec> batches;
};

std::ostream& operator<<(std::ostream& os, const DynCase& c) {
  os << "{level=" << c.level << ", n=" << c.pts.size() << ", curve="
     << curve_name(c.curve) << ", topo="
     << detail::Printer<TopoCase>::print(c.topo) << ", radius=" << c.radius
     << ", norm="
     << (c.norm == fmm::NeighborNorm::kChebyshev ? "chebyshev" : "manhattan")
     << ", batches=[";
  for (std::size_t i = 0; i < c.batches.size(); ++i) {
    os << (i ? " " : "") << c.batches[i];
  }
  return os << "], pts="
            << detail::Printer<std::vector<Point2>>::print(c.pts) << "}";
}

Gen<DynCase> dyn_case(topo::Rank max_procs) {
  const Gen<TopoCase> tc = topology_case(max_procs);
  const Gen<CurveKind> ck = any_curve2();
  const Gen<BatchSpec> bs = batch_spec(24);
  return Gen<DynCase>{
      [tc, ck, bs](Rand& r) {
        DynCase c;
        c.level = static_cast<unsigned>(r.between(2, 5));
        const std::uint64_t cells = grid_size<2>(c.level);
        const std::size_t max_n =
            static_cast<std::size_t>(std::min<std::uint64_t>(64, cells / 2));
        c.pts = distinct_points<2>(c.level, 2, max_n).sample(r);
        c.curve = ck.sample(r);
        c.topo = tc.sample(r);
        c.radius = static_cast<unsigned>(r.below(3));
        c.norm = r.coin() ? fmm::NeighborNorm::kChebyshev
                          : fmm::NeighborNorm::kManhattan;
        const std::size_t nb = r.between(1, 4);
        for (std::size_t i = 0; i < nb; ++i) {
          c.batches.push_back(bs.sample(r));
        }
        return c;
      },
      [tc, ck, bs](const DynCase& c, std::vector<DynCase>& out) {
        // Trajectory shrinks first: fewer batches isolate the offending
        // step, then per-batch shrinks isolate the offending move.
        if (c.batches.size() > 1) {
          for (const std::size_t keep :
               {std::size_t{1}, c.batches.size() / 2, c.batches.size() - 1}) {
            if (keep == 0 || keep >= c.batches.size()) continue;
            DynCase smaller = c;
            smaller.batches.assign(
                c.batches.begin(),
                c.batches.begin() + static_cast<std::ptrdiff_t>(keep));
            out.push_back(std::move(smaller));
          }
        }
        for (std::size_t i = 0; i < c.batches.size(); ++i) {
          for (const BatchSpec& b : bs.shrinks(c.batches[i])) {
            DynCase smaller = c;
            smaller.batches[i] = b;
            out.push_back(std::move(smaller));
          }
        }
        std::vector<std::vector<Point2>> pcands;
        distinct_points<2>(c.level, 2, c.pts.size()).shrink(c.pts, pcands);
        for (auto& pts : pcands) {
          DynCase smaller = c;
          smaller.pts = std::move(pts);
          out.push_back(std::move(smaller));
        }
        for (const TopoCase& t : tc.shrinks(c.topo)) {
          DynCase smaller = c;
          smaller.topo = t;
          out.push_back(std::move(smaller));
        }
        std::vector<unsigned> rads;
        shrink_integral_toward<unsigned>(0, c.radius, rads);
        for (const unsigned rr : rads) {
          DynCase smaller = c;
          smaller.radius = rr;
          out.push_back(std::move(smaller));
        }
        for (const CurveKind k : ck.shrinks(c.curve)) {
          DynCase smaller = c;
          smaller.curve = k;
          out.push_back(std::move(smaller));
        }
      }};
}

std::string show(const core::CommTotals& t) {
  return "{hops=" + std::to_string(t.hops) +
         ", count=" + std::to_string(t.count) + "}";
}

std::optional<std::string> expect_totals(const core::CommTotals& got,
                                         const core::CommTotals& want,
                                         const std::string& what) {
  if (got == want) return std::nullopt;
  return what + ": " + show(got) + " != oracle " + show(want);
}

std::optional<std::string> expect_ffi(const fmm::FfiTotals& got,
                                      const fmm::FfiTotals& want,
                                      const std::string& what) {
  if (auto err =
          expect_totals(got.interpolation, want.interpolation, what)) {
    return "interpolation " + *err;
  }
  if (auto err =
          expect_totals(got.anterpolation, want.anterpolation, what)) {
    return "anterpolation " + *err;
  }
  if (auto err = expect_totals(got.interaction, want.interaction, what)) {
    return "interaction " + *err;
  }
  return std::nullopt;
}

/// Drive one engine through the case's trajectory, comparing against the
/// brute-force oracles after every batch.
template <int D>
std::optional<std::string> run_against_oracle(
    core::DynamicAcd<D>& dyn, const topo::Topology& net, unsigned level,
    unsigned radius, fmm::NeighborNorm norm,
    const std::vector<BatchSpec>& batches) {
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto moves = resolve_batch<D>(batches[b], dyn.particles(), level);
    dyn.move_particles(moves);
    const oracle::FrozenTotals want = oracle::frozen_totals<D>(
        dyn.particles(), level, dyn.partition(), net, radius, norm);
    const std::string at = "batch " + std::to_string(b) + " (" +
                           std::to_string(moves.size()) + " moves) NFI";
    if (auto err = expect_totals(dyn.nfi(net), want.nfi, at)) return err;
    if (auto err = expect_ffi(dyn.ffi(net), want.ffi,
                              "batch " + std::to_string(b) + " FFI")) {
      return err;
    }
  }
  return std::nullopt;
}

// ------------------------------------------------- the headline differential

TEST(DynamicsDiff, IncrementalMatchesFullRecomputeAfterEveryBatch) {
  SFCACD_PBT_CHECK(
      dyn_case(32), [](const DynCase& c) -> std::optional<std::string> {
        const auto curve = make_curve<2>(c.curve);
        const auto net = c.topo.make();
        core::DynamicAcd<2>::Options opts;
        opts.radius = c.radius;
        opts.norm = c.norm;
        opts.repartition_threshold = 2.0;  // frozen assignment throughout
        core::DynamicAcd<2> dyn(c.pts, c.level, *curve, c.topo.procs, opts);
        return run_against_oracle<2>(dyn, *net, c.level, c.radius, c.norm,
                                     c.batches);
      });
}

TEST(DynamicsDiff, LazyRepartitionPreservesTotals) {
  // Threshold 0: any displaced particle triggers a re-sort + rebuild
  // mid-trajectory. The rebuilt state must still price the (now
  // re-frozen) assignment exactly as the oracles do.
  SFCACD_PBT_CHECK_CFG(
      dyn_case(32), CheckConfig{}.scaled(0.5),
      [](const DynCase& c) -> std::optional<std::string> {
        const auto curve = make_curve<2>(c.curve);
        const auto net = c.topo.make();
        core::DynamicAcd<2>::Options opts;
        opts.radius = c.radius;
        opts.norm = c.norm;
        opts.repartition_threshold = 0.0;
        core::DynamicAcd<2> dyn(c.pts, c.level, *curve, c.topo.procs, opts);
        return run_against_oracle<2>(dyn, *net, c.level, c.radius, c.norm,
                                     c.batches);
      });
}

// ----------------------------------------------------------- 3-D coverage

struct DynCase3 {
  unsigned level = 2;
  std::vector<Point3> pts;
  CurveKind curve = CurveKind::kHilbert;
  TopoCase topo;  // interconnects are rank graphs: dimension-free
  std::vector<BatchSpec> batches;
};

std::ostream& operator<<(std::ostream& os, const DynCase3& c) {
  os << "{level=" << c.level << ", n=" << c.pts.size() << ", curve="
     << curve_name(c.curve) << ", topo="
     << detail::Printer<TopoCase>::print(c.topo) << ", batches=[";
  for (std::size_t i = 0; i < c.batches.size(); ++i) {
    os << (i ? " " : "") << c.batches[i];
  }
  return os << "], pts="
            << detail::Printer<std::vector<Point3>>::print(c.pts) << "}";
}

Gen<DynCase3> dyn_case3(topo::Rank max_procs) {
  const Gen<TopoCase> tc = topology_case(max_procs);
  const Gen<CurveKind> ck = any_curve3();
  const Gen<BatchSpec> bs = batch_spec(12);
  return Gen<DynCase3>{
      [tc, ck, bs](Rand& r) {
        DynCase3 c;
        c.level = static_cast<unsigned>(r.between(2, 3));
        const std::uint64_t cells = grid_size<3>(c.level);
        const std::size_t max_n =
            static_cast<std::size_t>(std::min<std::uint64_t>(48, cells / 2));
        c.pts = distinct_points<3>(c.level, 2, max_n).sample(r);
        c.curve = ck.sample(r);
        c.topo = tc.sample(r);
        const std::size_t nb = r.between(1, 3);
        for (std::size_t i = 0; i < nb; ++i) {
          c.batches.push_back(bs.sample(r));
        }
        return c;
      },
      [tc, ck, bs](const DynCase3& c, std::vector<DynCase3>& out) {
        if (c.batches.size() > 1) {
          DynCase3 smaller = c;
          smaller.batches.assign(c.batches.begin(), c.batches.begin() + 1);
          out.push_back(std::move(smaller));
        }
        for (std::size_t i = 0; i < c.batches.size(); ++i) {
          for (const BatchSpec& b : bs.shrinks(c.batches[i])) {
            DynCase3 smaller = c;
            smaller.batches[i] = b;
            out.push_back(std::move(smaller));
          }
        }
        std::vector<std::vector<Point3>> pcands;
        distinct_points<3>(c.level, 2, c.pts.size()).shrink(c.pts, pcands);
        for (auto& pts : pcands) {
          DynCase3 smaller = c;
          smaller.pts = std::move(pts);
          out.push_back(std::move(smaller));
        }
        for (const TopoCase& t : tc.shrinks(c.topo)) {
          DynCase3 smaller = c;
          smaller.topo = t;
          out.push_back(std::move(smaller));
        }
      }};
}

TEST(DynamicsDiff, ThreeDimensionalTrajectoriesMatchOracles) {
  SFCACD_PBT_CHECK_CFG(
      dyn_case3(16), CheckConfig{}.scaled(0.5),
      [](const DynCase3& c) -> std::optional<std::string> {
        const auto curve = make_curve<3>(c.curve);
        const auto net = c.topo.make();
        core::DynamicAcd<3>::Options opts;
        opts.repartition_threshold = 2.0;
        core::DynamicAcd<3> dyn(c.pts, c.level, *curve, c.topo.procs, opts);
        return run_against_oracle<3>(dyn, *net, c.level, opts.radius,
                                     opts.norm, c.batches);
      });
}

// ------------------------------------------- injected-bug acceptance test

/// A deliberately narrow case for the fault-injection self-test: fixed
/// level/curve/topology so the shrunk counterexample is readable, and a
/// deterministic batch — the first `count` particles (in the engine's
/// sorted order) each step one cell in +x — so shrinking `count` drops
/// trailing moves without re-rolling the whole trajectory. The injected
/// fault targets the batch's *first* mover, so `count = 1` isolates it.
struct FaultCase {
  std::vector<Point2> pts;
  std::uint32_t count = 1;
};

std::ostream& operator<<(std::ostream& os, const FaultCase& c) {
  return os << "{n=" << c.pts.size() << ", count=" << c.count << ", pts="
            << detail::Printer<std::vector<Point2>>::print(c.pts) << "}";
}

constexpr unsigned kFaultLevel = 3;

Gen<FaultCase> fault_case() {
  return Gen<FaultCase>{
      [](Rand& r) {
        FaultCase c;
        c.pts = distinct_points<2>(kFaultLevel, 2, 24).sample(r);
        c.count = static_cast<std::uint32_t>(r.between(1, 8));
        return c;
      },
      [](const FaultCase& c, std::vector<FaultCase>& out) {
        std::vector<std::vector<Point2>> pcands;
        distinct_points<2>(kFaultLevel, 2, c.pts.size()).shrink(c.pts, pcands);
        for (auto& pts : pcands) out.push_back({std::move(pts), c.count});
        std::vector<std::uint32_t> cands;
        shrink_integral_toward<std::uint32_t>(1, c.count, cands);
        for (const std::uint32_t k : cands) out.push_back({c.pts, k});
      }};
}

/// The first min(count, n) particles each attempt one step in +x;
/// off-grid or occupied targets are skipped (evolving occupancy, like
/// every other batch builder here).
std::vector<core::ParticleMove<2>> march_moves(
    const std::vector<Point2>& positions, std::uint32_t count) {
  const std::int64_t side = std::int64_t{1} << kFaultLevel;
  std::unordered_set<std::uint64_t> occupied;
  for (const Point2& p : positions) occupied.insert(pack(p, kFaultLevel));
  std::vector<core::ParticleMove<2>> moves;
  const auto n = static_cast<std::uint32_t>(positions.size());
  for (std::uint32_t i = 0; i < count && i < n; ++i) {
    const Point2& p = positions[i];
    if (static_cast<std::int64_t>(p[0]) + 1 >= side) continue;
    Point2 to = p;
    ++to[0];
    if (!occupied.insert(pack(to, kFaultLevel)).second) continue;
    occupied.erase(pack(p, kFaultLevel));
    moves.push_back({i, to});
  }
  return moves;
}

std::optional<std::string> fault_differential(const FaultCase& c,
                                              bool inject) {
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kRing, 4,
                                          curve.get());
  core::DynamicAcd<2>::Options opts;
  opts.radius = 1;
  opts.repartition_threshold = 2.0;
  opts.fault_stale_subtraction = inject;
  core::DynamicAcd<2> dyn(c.pts, kFaultLevel, *curve, 4, opts);
  const auto moves = march_moves(dyn.particles(), c.count);
  dyn.move_particles(moves);
  const core::CommTotals want = oracle::nfi_pairwise<2>(
      dyn.particles(), dyn.partition(), *net, opts.radius, opts.norm);
  return expect_totals(dyn.nfi(*net), want,
                       std::to_string(moves.size()) + "-move batch NFI");
}

TEST(DynamicsInjectedBug, CorrectEngineSurvivesTheSameTrajectories) {
  const CheckConfig cfg{.iterations = 300, .seed = 0xd1f};
  const CheckOutcome out = check(
      fault_case(),
      [](const FaultCase& c) { return fault_differential(c, false); }, cfg);
  EXPECT_TRUE(out.ok) << out.message;
}

TEST(DynamicsInjectedBug, StaleSubtractionIsCaughtAndShrunkToOneMove) {
  // The acceptance criterion for the dynamics harness: an engine that
  // "forgets" to retract the first mover's outgoing near-field events —
  // the classic stale-subtraction bug an incremental path can hide —
  // must be detected by the differential, and the shrinker must reduce
  // the trajectory to a single move of a two-particle configuration.
  const CheckConfig cfg{.iterations = 300, .seed = 0xd1f};
  const CheckOutcome out = check(
      fault_case(),
      [](const FaultCase& c) { return fault_differential(c, true); }, cfg);
  ASSERT_FALSE(out.ok);
  EXPECT_GT(out.shrink_improvements, 0u);
  EXPECT_NE(out.counterexample.find("n=2"), std::string::npos)
      << out.counterexample;
  EXPECT_NE(out.counterexample.find("count=1"), std::string::npos)
      << out.counterexample;
  EXPECT_NE(out.message.find("replay: SFCACD_PBT_SEED=0xd1f"),
            std::string::npos)
      << out.message;
}

}  // namespace
}  // namespace sfc::pbt
