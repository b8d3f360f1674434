// Differential and metamorphic properties of the ACD engines. The
// optimized NFI/FFI paths (rank-pair aggregation, flat hop tables,
// owner-array enumeration, threaded ranges, sparse accumulators) and the
// hop histograms folded from them are all pinned to the brute-force
// oracles in tests/oracles/, and the whole
// metric must be invariant under rank relabelings that are automorphisms
// of the interconnect — rotations/reflections of rings, XOR translations
// of hypercubes, shifts of tori — which exercises every layer at once
// with an answer known by symmetry instead of by reimplementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/acd.hpp"
#include "core/histogram.hpp"
#include "core/rank_pair.hpp"
#include "core/totals.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/occupancy.hpp"
#include "fmm/partition.hpp"
#include "oracles/oracles.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "topology/relabel.hpp"
#include "util/thread_pool.hpp"

namespace sfc::pbt {
namespace {

// ----------------------------------------------------------- case shape

/// One complete ACD instance: a particle set on a grid, the particle
/// order, the interconnect, and the near-field parameters.
struct AcdCase {
  unsigned level = 2;
  std::vector<Point2> pts;
  CurveKind curve = CurveKind::kHilbert;
  TopoCase topo;
  unsigned radius = 1;
  fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
};

std::ostream& operator<<(std::ostream& os, const AcdCase& c) {
  return os << "{level=" << c.level << ", n=" << c.pts.size() << ", curve="
            << curve_name(c.curve) << ", topo="
            << detail::Printer<TopoCase>::print(c.topo) << ", radius="
            << c.radius << ", norm="
            << (c.norm == fmm::NeighborNorm::kChebyshev ? "chebyshev"
                                                        : "manhattan")
            << ", pts=" << detail::Printer<std::vector<Point2>>::print(c.pts)
            << "}";
}

Gen<AcdCase> acd_case(topo::Rank max_procs) {
  const Gen<TopoCase> tc = topology_case(max_procs);
  const Gen<CurveKind> ck = any_curve2();
  return Gen<AcdCase>{
      [tc, ck](Rand& r) {
        AcdCase c;
        c.level = static_cast<unsigned>(r.between(2, 5));
        const std::uint64_t cells = grid_size<2>(c.level);
        const std::size_t max_n = static_cast<std::size_t>(
            std::min<std::uint64_t>(96, cells / 2));
        c.pts = distinct_points<2>(c.level, 1, max_n).sample(r);
        c.curve = ck.sample(r);
        c.topo = tc.sample(r);
        c.radius = static_cast<unsigned>(r.below(4));
        c.norm = r.coin() ? fmm::NeighborNorm::kChebyshev
                          : fmm::NeighborNorm::kManhattan;
        return c;
      },
      [tc, ck](const AcdCase& c, std::vector<AcdCase>& out) {
        // Particle-set shrinks keep the level fixed: shrinking the level
        // would re-scale the grid and invalidate the points.
        std::vector<std::vector<Point2>> pcands;
        distinct_points<2>(c.level, 1, c.pts.size())
            .shrink(c.pts, pcands);
        for (auto& pts : pcands) {
          AcdCase smaller = c;
          smaller.pts = std::move(pts);
          out.push_back(std::move(smaller));
        }
        for (const TopoCase& t : tc.shrinks(c.topo)) {
          AcdCase smaller = c;
          smaller.topo = t;
          out.push_back(std::move(smaller));
        }
        std::vector<unsigned> rads;
        shrink_integral_toward<unsigned>(0, c.radius, rads);
        for (const unsigned rr : rads) {
          AcdCase smaller = c;
          smaller.radius = rr;
          out.push_back(std::move(smaller));
        }
        for (const CurveKind k : ck.shrinks(c.curve)) {
          AcdCase smaller = c;
          smaller.curve = k;
          out.push_back(std::move(smaller));
        }
      }};
}

std::vector<Point2> sort_by_curve(std::vector<Point2> pts, CurveKind kind,
                                  unsigned level) {
  const auto curve = make_curve<2>(kind);
  std::sort(pts.begin(), pts.end(), [&](const Point2& a, const Point2& b) {
    return curve->index(a, level) < curve->index(b, level);
  });
  return pts;
}

util::ThreadPool& shared_pool() {
  static util::ThreadPool pool(4);
  return pool;
}

std::string show(const core::CommTotals& t) {
  return "{hops=" + std::to_string(t.hops) +
         ", count=" + std::to_string(t.count) + "}";
}

std::optional<std::string> expect_eq_totals(const core::CommTotals& got,
                                            const core::CommTotals& want,
                                            const char* what) {
  if (got == want) return std::nullopt;
  return std::string(what) + ": " + show(got) + " != oracle " + show(want);
}

// ------------------------------------------------------ NFI differential

TEST(AcdDiff, NfiEnginesMatchPairwiseOracle) {
  SFCACD_PBT_CHECK(acd_case(32), [](const AcdCase& c)
                                     -> std::optional<std::string> {
    const std::vector<Point2> sorted = sort_by_curve(c.pts, c.curve, c.level);
    const fmm::OccupancyGrid<2> grid(sorted, c.level);
    const fmm::Partition part(sorted.size(), c.topo.procs);
    const auto net = c.topo.make();
    const core::CommTotals want =
        oracle::nfi_pairwise<2>(sorted, part, *net, c.radius, c.norm);

    if (auto err = expect_eq_totals(
            fmm::nfi_totals<2>(sorted, grid, part, *net, c.radius, c.norm),
            want, "nfi_totals")) {
      return err;
    }
    if (auto err = expect_eq_totals(
            fmm::nfi_totals_direct<2>(sorted, grid, part, *net, c.radius,
                                      c.norm),
            want, "nfi_totals_direct")) {
      return err;
    }
    const core::RankPairAccumulator hist =
        fmm::nfi_histogram<2>(sorted, grid, part, c.radius, c.norm);
    return expect_eq_totals(net->fold(hist.view()), want,
                            "nfi_histogram + fold");
  });
}

using PairCount = std::tuple<topo::Rank, topo::Rank, std::uint64_t>;

TEST(AcdDiff, NfiOwnersPathMatchesPartitionPath) {
  // The owner-array path must produce the identical histogram for the
  // identical particle→owner assignment regardless of array order; feed
  // it the particles reversed with owners permuted to match.
  SFCACD_PBT_CHECK_CFG(
      acd_case(32), CheckConfig{}.scaled(0.5),
      [](const AcdCase& c) -> std::optional<std::string> {
        const std::vector<Point2> sorted =
            sort_by_curve(c.pts, c.curve, c.level);
        const std::size_t n = sorted.size();
        const fmm::OccupancyGrid<2> grid(sorted, c.level);
        const fmm::Partition part(n, c.topo.procs);
        const auto net = c.topo.make();

        std::vector<Point2> reversed(n);
        std::vector<topo::Rank> owners(n);
        for (std::size_t i = 0; i < n; ++i) {
          reversed[i] = sorted[n - 1 - i];
          owners[i] = part.proc_of(n - 1 - i);
        }
        const fmm::OccupancyGrid<2> rgrid(reversed, c.level);

        const core::RankPairAccumulator a =
            fmm::nfi_histogram<2>(sorted, grid, part, c.radius, c.norm);
        const core::RankPairAccumulator b = fmm::nfi_histogram_owners<2>(
            reversed, rgrid, owners, c.topo.procs, c.radius, c.norm);

        if (a.events() != b.events()) return "event totals differ";
        if (!(net->fold(a.view()) == net->fold(b.view()))) {
          return "folded totals differ";
        }
        std::vector<PairCount> sa;
        std::vector<PairCount> sb;
        a.for_each([&](topo::Rank s, topo::Rank d, std::uint64_t k) {
          sa.emplace_back(s, d, k);
        });
        b.for_each([&](topo::Rank s, topo::Rank d, std::uint64_t k) {
          sb.emplace_back(s, d, k);
        });
        if (sa != sb) return "per-pair histograms differ";
        return std::nullopt;
      });
}

/// The NFI kernel in arbitrary array order: the particles sit in a
/// random cluster of the grid (so events exist even on a level-14
/// map-backed grid), `owners` are contiguous chunks of the generation
/// order handed to random ranks below `procs`, and `perm` is the array
/// order the kernel sees.
template <int D>
struct SparseNfiCase {
  unsigned level = 2;
  std::vector<Point<D>> pts;
  std::vector<topo::Rank> owners;
  std::vector<std::size_t> perm;
  topo::Rank procs = 4096;
  unsigned radius = 1;
  fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
};

template <int D>
std::ostream& operator<<(std::ostream& os, const SparseNfiCase<D>& c) {
  os << "{D=" << D << ", level=" << c.level << ", procs=" << c.procs
     << ", radius=" << c.radius << ", norm="
     << (c.norm == fmm::NeighborNorm::kChebyshev ? "chebyshev" : "manhattan")
     << ", pts(owner)=[";
  for (std::size_t i = 0; i < c.pts.size(); ++i) {
    os << "(";
    for (int d = 0; d < D; ++d) os << (d ? "," : "") << c.pts[i][d];
    os << ")@" << c.owners[i] << " ";
  }
  os << "], perm=[";
  for (const std::size_t i : c.perm) os << i << " ";
  return os << "]}";
}

/// The points are `min_n`..`max_n` distinct cells of a 2^box-wide box
/// (box = min(level, max_box_level)) placed at a random offset of the
/// level grid. `procs` is drawn from [1, 2^17], half the time from
/// [1, 32], so both sides of build_rank_pairs' size rule (a p×p scratch
/// while p² <= 8 · particles, source rows beyond) are drawn.
template <int D>
Gen<SparseNfiCase<D>> sparse_nfi_case(Gen<unsigned> level_gen,
                                      unsigned max_box_level,
                                      std::size_t min_n, std::size_t max_n) {
  return Gen<SparseNfiCase<D>>{
      [=](Rand& r) {
        SparseNfiCase<D> c;
        c.level = level_gen.sample(r);
        const unsigned box = std::min(c.level, max_box_level);
        const auto cap = static_cast<std::size_t>(
            std::min<std::uint64_t>(max_n, grid_size<D>(box) / 2));
        c.pts = distinct_points<D>(box, min_n, cap).sample(r);
        const std::uint64_t slack =
            (std::uint64_t{1} << c.level) - (std::uint64_t{1} << box) + 1;
        for (int d = 0; d < D; ++d) {
          const auto off = static_cast<std::uint32_t>(r.below(slack));
          for (Point<D>& q : c.pts) q[d] += off;
        }
        const std::size_t n = c.pts.size();
        c.procs = static_cast<topo::Rank>(
            r.between(1, r.coin() ? 32 : std::uint64_t{1} << 17));
        const std::size_t chunks = r.between(1, n);
        std::vector<topo::Rank> rank_of(chunks);
        for (topo::Rank& k : rank_of) {
          k = static_cast<topo::Rank>(r.below(c.procs));
        }
        c.owners.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          c.owners[i] = rank_of[i * chunks / n];
        }
        c.perm.resize(n);
        for (std::size_t i = 0; i < n; ++i) c.perm[i] = i;
        for (std::size_t i = n; i > 1; --i) {
          std::swap(c.perm[i - 1], c.perm[r.below(i)]);
        }
        c.radius = static_cast<unsigned>(r.between(1, 3));
        c.norm = r.coin() ? fmm::NeighborNorm::kChebyshev
                          : fmm::NeighborNorm::kManhattan;
        return c;
      },
      [min_n](const SparseNfiCase<D>& c,
              std::vector<SparseNfiCase<D>>& out) {
        // Drop particles [lo, hi) with their owners and perm slots: each
        // half first, then (on small cases) one particle at a time.
        const std::size_t n = c.pts.size();
        const auto without = [&c](std::size_t lo, std::size_t hi) {
          SparseNfiCase<D> smaller = c;
          const auto at = [](std::size_t i) {
            return static_cast<std::ptrdiff_t>(i);
          };
          smaller.pts.erase(smaller.pts.begin() + at(lo),
                            smaller.pts.begin() + at(hi));
          smaller.owners.erase(smaller.owners.begin() + at(lo),
                               smaller.owners.begin() + at(hi));
          smaller.perm.clear();
          for (const std::size_t i : c.perm) {
            if (i < lo || i >= hi) {
              smaller.perm.push_back(i >= hi ? i - (hi - lo) : i);
            }
          }
          return smaller;
        };
        if (n / 2 >= min_n && n > 1) {
          out.push_back(without(0, n / 2));
          out.push_back(without(n / 2, n));
        }
        if (n > min_n && n <= 128) {
          for (std::size_t i = 0; i < n; ++i) out.push_back(without(i, i + 1));
        }
        if (c.radius > 1) {
          SparseNfiCase<D> smaller = c;
          smaller.radius = 1;
          out.push_back(std::move(smaller));
        }
      }};
}

template <int D>
std::optional<std::string> check_sparse_nfi(const SparseNfiCase<D>& c) {
  std::vector<Point<D>> pts(c.pts.size());
  std::vector<topo::Rank> owners(c.pts.size());
  for (std::size_t k = 0; k < c.perm.size(); ++k) {
    pts[k] = c.pts[c.perm[k]];
    owners[k] = c.owners[c.perm[k]];
  }
  const fmm::OccupancyGrid<D> grid(pts, c.level);
  const core::RankPairAccumulator hist = fmm::nfi_histogram_owners<D>(
      pts, grid, owners, c.procs, c.radius, c.norm);
  hist.seal();

  std::vector<std::tuple<std::uint64_t, topo::Rank, topo::Rank,
                         std::uint64_t>> got;
  hist.for_each([&](topo::Rank s, topo::Rank d, std::uint64_t k) {
    got.emplace_back(std::uint64_t{s} * c.procs + d, s, d, k);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::get<3>(got[i]) == 0) return "a pair with count 0";
    if (i != 0 && std::get<0>(got[i - 1]) >= std::get<0>(got[i])) {
      return "keys not strictly increasing at pair " + std::to_string(i);
    }
  }
  const std::size_t entry = sizeof(std::pair<std::uint64_t, std::uint64_t>);
  if (hist.memory_bytes() != got.size() * entry) {
    return "sealed histogram holds " + std::to_string(hist.memory_bytes()) +
           " bytes for " + std::to_string(got.size()) + " pairs";
  }

  // The 2-D dense grid takes the half-window kernel (count-2 entries on
  // one endpoint's row); every other grid records each directed event.
  const bool half_window = D == 2 && grid.dense_cells() != nullptr;
  const oracle::PairCounts want =
      oracle::nfi_pair_counts<D>(c.pts, c.owners, c.radius, c.norm,
                                 half_window);
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " pairs, oracle has " +
           std::to_string(want.size());
  }
  auto it = want.begin();
  for (const auto& [key, s, d, k] : got) {
    if (it->first != std::pair{s, d} || it->second != k) {
      return "pair (" + std::to_string(s) + "," + std::to_string(d) +
             ")=" + std::to_string(k) + " but oracle has (" +
             std::to_string(it->first.first) + "," +
             std::to_string(it->first.second) + ")=" +
             std::to_string(it->second);
    }
    ++it;
  }
  return std::nullopt;
}

TEST(AcdDiff, NfiSparseKernelMatchesPerEventOracle) {
  // Levels 2-5 take the dense grid (half-window kernel, SIMD compaction
  // at r >= 2); 14-15 the map-backed grid and the generic window visitor.
  const Gen<unsigned> level = Gen<unsigned>{
      [](Rand& r) {
        return static_cast<unsigned>(r.coin() ? r.between(2, 5)
                                              : r.between(14, 15));
      },
      [](const unsigned&, std::vector<unsigned>&) {}};
  SFCACD_PBT_CHECK_CFG(sparse_nfi_case<2>(level, 5, 1, 96),
                       CheckConfig{}.scaled(0.5), check_sparse_nfi<2>);
}

TEST(AcdDiff, NfiSparseKernelMatchesPerEventOracle3D) {
  SFCACD_PBT_CHECK_CFG(sparse_nfi_case<3>(level_in(2, 4), 3, 1, 96),
                       CheckConfig{}.scaled(0.25), check_sparse_nfi<3>);
}

// ------------------------------------------------------ FFI differential

/// An FFI histogram build: a particle set, its curve and a processor
/// count drawn like sparse_nfi_case's, so both sides of the builder's
/// size rule are drawn (the items are the cells of the tree's levels).
struct FfiHistCase {
  unsigned level = 2;
  std::vector<Point2> pts;
  CurveKind curve = CurveKind::kHilbert;
  topo::Rank procs = 1;
};

std::ostream& operator<<(std::ostream& os, const FfiHistCase& c) {
  return os << "{level=" << c.level << ", curve=" << curve_name(c.curve)
            << ", procs=" << c.procs << ", pts="
            << detail::Printer<std::vector<Point2>>::print(c.pts) << "}";
}

Gen<FfiHistCase> ffi_hist_case() {
  const Gen<CurveKind> ck = any_curve2();
  return Gen<FfiHistCase>{
      [ck](Rand& r) {
        FfiHistCase c;
        c.level = static_cast<unsigned>(r.between(2, 6));
        const auto max_n = static_cast<std::size_t>(
            std::min<std::uint64_t>(160, grid_size<2>(c.level) / 2));
        c.pts = distinct_points<2>(c.level, 1, max_n).sample(r);
        c.curve = ck.sample(r);
        c.procs = static_cast<topo::Rank>(
            r.between(1, r.coin() ? 32 : std::uint64_t{1} << 17));
        return c;
      },
      [](const FfiHistCase& c, std::vector<FfiHistCase>& out) {
        std::vector<std::vector<Point2>> pcands;
        distinct_points<2>(c.level, 1, c.pts.size()).shrink(c.pts, pcands);
        for (auto& pts : pcands) {
          FfiHistCase smaller = c;
          smaller.pts = std::move(pts);
          out.push_back(std::move(smaller));
        }
        std::vector<topo::Rank> procs;
        shrink_integral_toward(topo::Rank{1}, c.procs, procs);
        for (const topo::Rank p : procs) {
          FfiHistCase smaller = c;
          smaller.procs = p;
          out.push_back(std::move(smaller));
        }
      }};
}

/// `acc`'s pairs against `want`, pair for pair and in key order.
std::optional<std::string> expect_pairs(const core::RankPairAccumulator& acc,
                                        const oracle::PairCounts& want,
                                        const char* what) {
  std::vector<std::pair<std::pair<topo::Rank, topo::Rank>, std::uint64_t>>
      got;
  acc.for_each([&](topo::Rank s, topo::Rank d, std::uint64_t k) {
    got.push_back({{s, d}, k});
  });
  const std::vector<
      std::pair<std::pair<topo::Rank, topo::Rank>, std::uint64_t>>
      expect(want.begin(), want.end());
  if (got == expect) return std::nullopt;
  std::string msg = std::string(what) + ": " + std::to_string(got.size()) +
                    " pairs, oracle has " + std::to_string(expect.size());
  for (std::size_t i = 0; i < std::min(got.size(), expect.size()); ++i) {
    if (got[i] != expect[i]) {
      const auto& [g, gk] = got[i];
      const auto& [e, ek] = expect[i];
      msg += "; first difference: (" + std::to_string(g.first) + "," +
             std::to_string(g.second) + ")=" + std::to_string(gk) +
             " vs oracle (" + std::to_string(e.first) + "," +
             std::to_string(e.second) + ")=" + std::to_string(ek);
      break;
    }
  }
  return msg;
}

std::optional<std::string> check_ffi_histograms(const FfiHistCase& c) {
  const std::vector<Point2> sorted =
      sort_by_curve(c.pts, c.curve, c.level);
  const fmm::Partition part(sorted.size(), c.procs);
  const fmm::FfiHistograms h =
      fmm::ffi_histograms<2>(fmm::CellTree<2>(sorted, c.level), part);

  oracle::PairCounts interp;
  oracle::PairCounts inter;
  std::vector<std::uint64_t> interp_at(c.level + 1, 0);
  for (const oracle::FfiEvent& e :
       oracle::ffi_event_pairs<2>(sorted, c.level, part)) {
    if (e.family == oracle::FfiFamily::kInterpolation) {
      ++interp[{e.src, e.dst}];
      ++interp_at[e.level];
    } else if (e.family == oracle::FfiFamily::kInteraction) {
      ++inter[{e.src, e.dst}];
    }
  }
  if (auto err = expect_pairs(h.interpolation, interp, "interpolation")) {
    return err;
  }
  if (auto err = expect_pairs(h.interaction, inter, "interaction")) {
    return err;
  }
  // IL membership is symmetric, so the interaction histogram is its
  // own transpose.
  oracle::PairCounts got;
  h.interaction.for_each([&got](topo::Rank s, topo::Rank d, std::uint64_t k) {
    got[{s, d}] = k;
  });
  for (const auto& [pair, count] : got) {
    const auto it = got.find({pair.second, pair.first});
    if (it == got.end() || it->second != count) {
      return "interaction histogram is not its own transpose at (" +
             std::to_string(pair.first) + "," +
             std::to_string(pair.second) + ")";
    }
  }
  // Each occupied cell of level l >= 1 sends exactly one
  // interpolation event to its parent.
  for (unsigned l = 1; l <= c.level; ++l) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> cells;
    for (const Point2& q : c.pts) {
      cells.emplace(q[0] >> (c.level - l), q[1] >> (c.level - l));
    }
    if (interp_at[l] != cells.size()) {
      return "level " + std::to_string(l) + ": " +
             std::to_string(interp_at[l]) +
             " interpolation events for " +
             std::to_string(cells.size()) + " occupied cells";
    }
  }
  return std::nullopt;
}

TEST(AcdDiff, FfiHistogramsMatchPerEventOracle) {
  SFCACD_PBT_CHECK_CFG(ffi_hist_case(), CheckConfig{}.scaled(0.5),
                       check_ffi_histograms);
}

TEST(AcdDiff, FfiEnginesMatchDefinitionalOracle) {
  SFCACD_PBT_CHECK(acd_case(32), [](const AcdCase& c)
                                     -> std::optional<std::string> {
    const std::vector<Point2> sorted = sort_by_curve(c.pts, c.curve, c.level);
    const fmm::Partition part(sorted.size(), c.topo.procs);
    const auto net = c.topo.make();
    const fmm::CellTree<2> tree(sorted, c.level);
    const fmm::FfiTotals want =
        oracle::ffi_definitional<2>(sorted, c.level, part, *net);

    const auto check_family =
        [&want](const char* name,
                const fmm::FfiTotals& got) -> std::optional<std::string> {
      if (auto err = expect_eq_totals(got.interpolation, want.interpolation,
                                      name)) {
        return "interpolation " + *err;
      }
      if (auto err = expect_eq_totals(got.anterpolation, want.anterpolation,
                                      name)) {
        return "anterpolation " + *err;
      }
      if (auto err =
              expect_eq_totals(got.interaction, want.interaction, name)) {
        return "interaction " + *err;
      }
      return std::nullopt;
    };
    if (auto err = check_family("ffi_totals",
                                fmm::ffi_totals<2>(tree, part, *net))) {
      return err;
    }
    if (auto err = check_family("ffi_totals_direct",
                                fmm::ffi_totals_direct<2>(tree, part, *net))) {
      return err;
    }
    return check_family("ffi_histograms + ffi_fold",
                        fmm::ffi_fold(fmm::ffi_histograms<2>(tree, part),
                                      *net));
  });
}

TEST(AcdDiff, FfiThreadedMatchesSerial) {
  // The sweep runs kernels on several pool workers at once over shared
  // inputs: calls racing on one cell tree and one fresh topology (its
  // lazy caches included) must each match a serial call made after them.
  SFCACD_PBT_CHECK_CFG(
      acd_case(32), CheckConfig{}.scaled(0.5),
      [](const AcdCase& c) -> std::optional<std::string> {
        const std::vector<Point2> sorted =
            sort_by_curve(c.pts, c.curve, c.level);
        const fmm::Partition part(sorted.size(), c.topo.procs);
        const auto net = c.topo.make();
        const fmm::CellTree<2> tree(sorted, c.level);
        std::vector<fmm::FfiTotals> threaded(4);
        util::Latch done(threaded.size());
        for (fmm::FfiTotals& t : threaded) {
          shared_pool().submit([&] {
            t = fmm::ffi_totals<2>(tree, part, *net);
            done.count_down();
          });
        }
        done.wait();
        const fmm::FfiTotals serial = fmm::ffi_totals<2>(tree, part, *net);
        for (const fmm::FfiTotals& t : threaded) {
          if (!(serial.interpolation == t.interpolation &&
                serial.anterpolation == t.anterpolation &&
                serial.interaction == t.interaction)) {
            return "threaded FFI differs from serial";
          }
        }
        return std::nullopt;
      });
}

// ------------------------------------------------- hop distributions

std::string show(const oracle::HopDistribution& bins) {
  std::string out = "{";
  for (const auto& [d, n] : bins) {
    out += (out.size() > 1 ? ", " : "") + std::to_string(d) + ":" +
           std::to_string(n);
  }
  return out + "}";
}

/// Every bin of a folded HopHistogram against the oracle's per-event
/// distribution, plus the histogram's own bookkeeping (total, hops,
/// max_seen) against its bins.
std::optional<std::string> expect_same_bins(
    const core::HopHistogram& got, const oracle::HopDistribution& want,
    const std::string& what) {
  oracle::HopDistribution bins;
  std::uint64_t total = 0;
  std::uint64_t hops = 0;
  for (std::uint64_t d = 0; d < got.bins().size(); ++d) {
    if (got.bins()[d] == 0) continue;
    bins[d] = got.bins()[d];
    total += got.bins()[d];
    hops += d * got.bins()[d];
  }
  if (bins != want) {
    return what + ": bins " + show(bins) + " != oracle " + show(want);
  }
  const std::uint64_t max_seen = bins.empty() ? 0 : bins.rbegin()->first;
  if (got.total() != total || got.hops() != hops ||
      got.max_seen() != max_seen) {
    return what + ": total/hops/max_seen disagree with the bins";
  }
  return std::nullopt;
}

TEST(AcdDiff, HopHistogramBinsMatchPerEventOracle) {
  // core::nfi_histogram / ffi_histogram fold the rank-pair histograms
  // (one distance() per distinct pair, FFI interpolation pairs counted
  // twice for their anterpolation mirror); the oracle prices every event
  // of the definitional sets. Each case runs both norms at radius 1-3.
  SFCACD_PBT_CHECK_CFG(
      acd_case(64), CheckConfig{}.scaled(0.5),
      [](const AcdCase& c) -> std::optional<std::string> {
        const std::vector<Point2> sorted =
            sort_by_curve(c.pts, c.curve, c.level);
        const auto curve = make_curve<2>(c.curve);
        const core::AcdInstance<2> instance(c.pts, c.level, *curve);
        if (instance.particles() != sorted) {
          return "test bug: AcdInstance order differs from the curve sort";
        }
        const fmm::Partition part(sorted.size(), c.topo.procs);
        const auto net = c.topo.make();
        for (const fmm::NeighborNorm norm :
             {fmm::NeighborNorm::kChebyshev, fmm::NeighborNorm::kManhattan}) {
          for (unsigned radius = 1; radius <= 3; ++radius) {
            if (auto err = expect_same_bins(
                    core::nfi_histogram(instance, part, *net, radius, norm),
                    oracle::nfi_hop_distribution<2>(sorted, part, *net,
                                                    radius, norm),
                    std::string("nfi_histogram ") +
                        (norm == fmm::NeighborNorm::kChebyshev ? "chebyshev"
                                                               : "manhattan") +
                        " radius " + std::to_string(radius))) {
              return err;
            }
          }
        }
        return expect_same_bins(
            core::ffi_histogram(instance, part, *net),
            oracle::ffi_hop_distribution<2>(sorted, c.level, part, *net),
            "ffi_histogram");
      });
}

// ------------------------------------------- automorphism invariance

/// Rank permutations that are graph automorphisms of the case's
/// interconnect; every ACD total must be bit-identical under them.
std::vector<std::vector<topo::Rank>> automorphisms(const TopoCase& t) {
  const topo::Rank p = t.procs;
  std::vector<std::vector<topo::Rank>> perms;
  auto from_fn = [p](auto&& fn) {
    std::vector<topo::Rank> perm(p);
    for (topo::Rank r = 0; r < p; ++r) perm[r] = fn(r);
    return perm;
  };
  switch (t.kind) {
    case topo::TopologyKind::kBus:
      perms.push_back(from_fn([p](topo::Rank r) { return p - 1 - r; }));
      break;
    case topo::TopologyKind::kRing:
      perms.push_back(from_fn([p](topo::Rank r) { return (r + 1) % p; }));
      perms.push_back(
          from_fn([p](topo::Rank r) { return (r + p / 2) % p; }));
      perms.push_back(from_fn([p](topo::Rank r) { return (p - r) % p; }));
      break;
    case topo::TopologyKind::kHypercube:
      if (p > 1) {
        perms.push_back(from_fn([](topo::Rank r) { return r ^ 1u; }));
        perms.push_back(from_fn([p](topo::Rank r) { return r ^ (p - 1); }));
      }
      break;
    case topo::TopologyKind::kMesh:
    case topo::TopologyKind::kTorus: {
      if (p == 1) break;
      unsigned m = 0;
      while ((topo::Rank{1} << (2 * m)) < p) ++m;
      const std::uint32_t side = 1u << m;
      const auto curve = make_curve<2>(t.ranking);
      // Point reflection through the grid center (mesh and torus).
      perms.push_back(from_fn([&](topo::Rank r) {
        const Point2 c = curve->point(r, m);
        return static_cast<topo::Rank>(curve->index(
            make_point(side - 1 - c[0], side - 1 - c[1]), m));
      }));
      if (t.kind == topo::TopologyKind::kTorus) {
        // Wraparound translations (torus only).
        const std::pair<std::uint32_t, std::uint32_t> shifts[] = {{1, 0},
                                                                  {1, 1}};
        for (const auto& [tx, ty] : shifts) {
          perms.push_back(from_fn([&, tx = tx, ty = ty](topo::Rank r) {
            const Point2 c = curve->point(r, m);
            return static_cast<topo::Rank>(curve->index(
                make_point((c[0] + tx) % side, (c[1] + ty) % side), m));
          }));
        }
      }
      break;
    }
    case topo::TopologyKind::kQuadtree:
      // Sibling leaves are interchangeable: swap the first two.
      if (p >= 4) {
        perms.push_back(from_fn(
            [](topo::Rank r) { return r < 2 ? topo::Rank{1} - r : r; }));
      }
      break;
  }
  return perms;
}

TEST(AcdDiff, AutomorphicRelabelingLeavesAcdInvariant) {
  SFCACD_PBT_CHECK_CFG(
      acd_case(64), CheckConfig{}.scaled(0.5),
      [](const AcdCase& c) -> std::optional<std::string> {
        const std::vector<Point2> sorted =
            sort_by_curve(c.pts, c.curve, c.level);
        const fmm::OccupancyGrid<2> grid(sorted, c.level);
        const fmm::Partition part(sorted.size(), c.topo.procs);
        const auto net = c.topo.make();
        const fmm::CellTree<2> tree(sorted, c.level);
        const std::vector<topo::Rank> owners = part.owner_table();

        const core::CommTotals nfi_base =
            net->fold(fmm::nfi_histogram_owners<2>(sorted, grid, owners,
                                                 c.topo.procs, c.radius,
                                                 c.norm)
                          .view());
        const fmm::FfiTotals ffi_base = fmm::ffi_totals<2>(tree, part, *net);

        for (const std::vector<topo::Rank>& perm : automorphisms(c.topo)) {
          // Sanity: the permutation really is distance-preserving; a bad
          // entry here would indict the test, not the engines.
          for (topo::Rank a = 0; a < c.topo.procs; ++a) {
            for (topo::Rank b = 0; b < c.topo.procs; ++b) {
              if (net->distance(perm[a], perm[b]) != net->distance(a, b)) {
                return "test bug: permutation is not an automorphism";
              }
            }
          }
          std::vector<topo::Rank> owners2(owners.size());
          for (std::size_t i = 0; i < owners.size(); ++i) {
            owners2[i] = perm[owners[i]];
          }
          const core::CommTotals nfi_perm =
              net->fold(fmm::nfi_histogram_owners<2>(sorted, grid, owners2,
                                                   c.topo.procs, c.radius,
                                                   c.norm)
                            .view());
          if (!(nfi_perm == nfi_base)) {
            return "NFI changed under automorphic relabeling: " +
                   show(nfi_perm) + " != " + show(nfi_base);
          }
          const topo::RelabeledTopology view(*net, perm);
          const fmm::FfiTotals ffi_perm =
              fmm::ffi_totals<2>(tree, part, view);
          if (!(ffi_perm.interpolation == ffi_base.interpolation &&
                ffi_perm.anterpolation == ffi_base.anterpolation &&
                ffi_perm.interaction == ffi_base.interaction)) {
            return "FFI changed under automorphic relabeling";
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace sfc::pbt
