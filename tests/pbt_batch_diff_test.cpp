// Differential properties of the batched encode kernels and the radix
// argsort that PR 5 put on the ordering hot path. The contract under
// test is bit-identity: Curve::index_batch must agree with the virtual
// per-point index() for every curve, level, and point multiset (the
// devirtualized Morton/Gray/row-major kernels and the table-driven
// Hilbert/Moore state machines have no tolerance for drift — the sweep
// cache keys and golden numbers are downstream), and radix_sort_pairs
// must produce exactly the permutation std::stable_sort produces on
// duplicate-heavy keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "sfc/curve.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "util/radix_sort.hpp"
#include "util/simd.hpp"

namespace sfc::pbt {
namespace {

// ------------------------------------------------------------- case shapes

/// How a batch's points are laid out. Random sets exercise the common
/// case; hull corners stress the extreme coordinates every bit plane of
/// the state machines sees; single-axis sets hold one coordinate at zero
/// so a transposed-axes bug cannot hide behind symmetric inputs.
enum class PointShape { kRandom, kHullCorner, kSingleAxis };

const char* shape_name(PointShape s) {
  switch (s) {
    case PointShape::kRandom:
      return "random";
    case PointShape::kHullCorner:
      return "hull-corner";
    case PointShape::kSingleAxis:
      return "single-axis";
  }
  return "?";
}

/// (curve, level, point multiset) — duplicates allowed; index_batch has
/// no distinctness precondition.
template <int D>
struct BatchCase {
  CurveKind kind = CurveKind::kHilbert;
  unsigned level = 1;
  PointShape shape = PointShape::kRandom;
  std::vector<Point<D>> pts;
};

template <int D>
std::ostream& operator<<(std::ostream& os, const BatchCase<D>& c) {
  os << "{" << curve_name(c.kind) << ", level=" << c.level << ", "
     << shape_name(c.shape) << ", n=" << c.pts.size();
  const std::size_t shown = c.pts.size() < 8 ? c.pts.size() : 8;
  for (std::size_t i = 0; i < shown; ++i) os << " " << to_string(c.pts[i]);
  if (shown < c.pts.size()) os << " ...";
  return os << "}";
}

template <int D>
Point<D> shaped_point(Rand& r, PointShape shape, unsigned level) {
  const std::uint64_t side = std::uint64_t{1} << level;
  Point<D> p{};
  switch (shape) {
    case PointShape::kRandom:
      for (int d = 0; d < D; ++d) {
        p[d] = static_cast<std::uint32_t>(r.below(side));
      }
      break;
    case PointShape::kHullCorner:
      for (int d = 0; d < D; ++d) {
        p[d] = r.below(2) == 0 ? 0u : static_cast<std::uint32_t>(side - 1);
      }
      break;
    case PointShape::kSingleAxis: {
      const int axis = static_cast<int>(r.below(D));
      p[axis] = static_cast<std::uint32_t>(r.below(side));
      break;
    }
  }
  return p;
}

template <int D>
Gen<BatchCase<D>> batch_case(Gen<CurveKind> kinds, unsigned max_lvl) {
  return Gen<BatchCase<D>>{
      [kinds, max_lvl](Rand& r) {
        BatchCase<D> c;
        c.kind = kinds.sample(r);
        c.level = static_cast<unsigned>(r.between(1, max_lvl));
        c.shape = static_cast<PointShape>(r.below(3));
        // Mostly random lengths (including 0 — an empty batch must not
        // touch either array), with a thumb on the scale for the SIMD
        // block boundaries: the lane widths of the vector kernels (4- and
        // 8-point blocks) plus one, where a tail loop that runs one
        // element short or long would hide from round sizes.
        static constexpr std::size_t kBoundary[] = {0, 1, 3, 4, 5, 7, 8,
                                                    9, 15, 16, 17, 65};
        const std::size_t n =
            r.below(4) == 0
                ? kBoundary[r.below(std::size(kBoundary))]
                : static_cast<std::size_t>(r.between(0, 64));
        c.pts.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          c.pts.push_back(shaped_point<D>(r, c.shape, c.level));
        }
        return c;
      },
      [](const BatchCase<D>& c, std::vector<BatchCase<D>>& out) {
        // Drop points (halves, then singles) — a shrunk failure is the
        // one point the kernel mis-encodes.
        if (c.pts.size() > 1) {
          for (const bool front : {true, false}) {
            BatchCase<D> half = c;
            const auto keep =
                static_cast<std::ptrdiff_t>(c.pts.size() / 2);
            if (front) {
              half.pts.assign(c.pts.begin(), c.pts.begin() + keep);
            } else {
              half.pts.assign(c.pts.end() - keep, c.pts.end());
            }
            out.push_back(std::move(half));
          }
          for (std::size_t i = 0; i < c.pts.size() && i < 8; ++i) {
            BatchCase<D> one = c;
            one.pts = {c.pts[i]};
            out.push_back(std::move(one));
          }
        }
        std::vector<unsigned> lvls;
        shrink_integral_toward<unsigned>(1, c.level, lvls);
        for (const unsigned l : lvls) {
          BatchCase<D> down = c;
          down.level = l;
          const std::uint32_t mask = (1u << l) - 1u;
          for (auto& p : down.pts) {
            for (int d = 0; d < D; ++d) p[d] &= mask;
          }
          out.push_back(std::move(down));
        }
      }};
}

/// index_batch vs one virtual index() call per point.
template <int D>
bool batch_matches_per_point(const BatchCase<D>& c) {
  const auto curve = make_curve<D>(c.kind);
  std::vector<std::uint64_t> batched(c.pts.size());
  curve->index_batch(c.pts.data(), batched.data(), c.pts.size(), c.level);
  for (std::size_t i = 0; i < c.pts.size(); ++i) {
    if (batched[i] != curve->index(c.pts[i], c.level)) return false;
  }
  return true;
}

/// index_batch on sub-slices starting at every small offset: callers
/// hand the kernels interior pointers (threaded chunking slices the
/// particle array wherever the chunk math lands), so a kernel that
/// assumes 32-byte alignment — Point<2> is 8 bytes, so odd offsets
/// misalign every wider vector load — or that reads before/after its
/// slice would diverge here and nowhere else.
template <int D>
bool batch_slices_match_per_point(const BatchCase<D>& c) {
  const auto curve = make_curve<D>(c.kind);
  const std::size_t n = c.pts.size();
  std::vector<std::uint64_t> batched(n);
  for (const std::size_t off : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{5}}) {
    if (off > n) break;
    const std::size_t len = n - off;
    std::fill(batched.begin(), batched.end(), ~std::uint64_t{0});
    curve->index_batch(c.pts.data() + off, batched.data(), len, c.level);
    for (std::size_t i = 0; i < len; ++i) {
      if (batched[i] != curve->index(c.pts[off + i], c.level)) return false;
    }
    // The slots past the slice must be untouched.
    for (std::size_t i = len; i < n; ++i) {
      if (batched[i] != ~std::uint64_t{0}) return false;
    }
  }
  return true;
}

/// The dispatched kernel table vs the forced-scalar table on the same
/// batch: bit-identity is the whole contract of the SIMD layer. On a
/// machine (or SFCACD_SIMD=off run) where dispatch already picked
/// scalar, this degenerates to scalar == scalar — still true, just not
/// informative.
template <int D>
bool batch_simd_matches_forced_scalar(const BatchCase<D>& c) {
  const auto curve = make_curve<D>(c.kind);
  std::vector<std::uint64_t> dispatched(c.pts.size());
  curve->index_batch(c.pts.data(), dispatched.data(), c.pts.size(),
                     c.level);
  std::vector<std::uint64_t> scalar(c.pts.size());
  {
    const util::simd::ScopedForceScalar force;
    curve->index_batch(c.pts.data(), scalar.data(), c.pts.size(), c.level);
  }
  return dispatched == scalar;
}

// --------------------------------------------------- batched == per-point

TEST(BatchDiff, BatchedMatchesPerPoint2D) {
  SFCACD_PBT_CHECK(batch_case<2>(any_curve2(), 16), batch_matches_per_point<2>);
}

TEST(BatchDiff, BatchedMatchesPerPoint3D) {
  SFCACD_PBT_CHECK(batch_case<3>(any_curve3(), 10), batch_matches_per_point<3>);
}

TEST(BatchDiff, BatchedSlicesMatchPerPoint2D) {
  SFCACD_PBT_CHECK(batch_case<2>(any_curve2(), 16),
                   batch_slices_match_per_point<2>);
}

TEST(BatchDiff, BatchedSlicesMatchPerPoint3D) {
  SFCACD_PBT_CHECK(batch_case<3>(any_curve3(), 10),
                   batch_slices_match_per_point<3>);
}

TEST(BatchDiff, SimdMatchesForcedScalar2D) {
  SFCACD_PBT_CHECK(batch_case<2>(any_curve2(), 16),
                   batch_simd_matches_forced_scalar<2>);
}

TEST(BatchDiff, SimdMatchesForcedScalar3D) {
  SFCACD_PBT_CHECK(batch_case<3>(any_curve3(), 10),
                   batch_simd_matches_forced_scalar<3>);
}

TEST(BatchDiff, BatchedMatchesPerPointAtMaxLevel2D) {
  // Level 31 is the 2-D ceiling (62-bit keys): the full state-machine
  // word width, where a missed carry or shift overflow would live.
  for (const CurveKind kind : kAllCurves) {
    const auto curve = make_curve<2>(kind);
    const unsigned level = 31;
    const std::uint32_t top = 0x7fffffffu;
    const std::vector<Point2> pts = {
        make_point(0, 0),          make_point(top, 0),
        make_point(0, top),        make_point(top, top),
        make_point(0x55555555u, 0x2aaaaaaau),
        make_point(0x12345678u, 0x6abcdef0u)};
    std::vector<std::uint64_t> batched(pts.size());
    curve->index_batch(pts.data(), batched.data(), pts.size(), level);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(batched[i], curve->index(pts[i], level))
          << curve_name(kind) << " at " << to_string(pts[i]);
    }
  }
}

TEST(BatchDiff, BatchedLevelZeroIsAllZeros) {
  for (const CurveKind kind : kAllCurves) {
    const auto curve = make_curve<2>(kind);
    const std::vector<Point2> pts(5, make_point(0, 0));
    std::vector<std::uint64_t> out(pts.size(), 7u);
    curve->index_batch(pts.data(), out.data(), pts.size(), 0);
    for (const std::uint64_t v : out) EXPECT_EQ(v, 0u) << curve_name(kind);
  }
}

// ------------------------------------------------ radix == stable_sort

/// Key pools small enough that duplicates are guaranteed — the regime
/// where an unstable sort would scramble tie order.
Gen<std::vector<std::uint64_t>> dup_heavy_keys() {
  return Gen<std::vector<std::uint64_t>>{
      [](Rand& r) {
        const std::size_t n = r.between(0, 200);
        // Distinct values across several byte positions so multiple radix
        // passes run (and with odd pass counts, the final buffer swap).
        const unsigned shift = static_cast<unsigned>(r.below(7)) * 8;
        const std::uint64_t pool_size = 1 + r.below(6);
        std::vector<std::uint64_t> keys;
        keys.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          keys.push_back((r.below(pool_size) << shift) | r.below(4));
        }
        return keys;
      },
      [](const std::vector<std::uint64_t>& v,
         std::vector<std::vector<std::uint64_t>>& out) {
        if (v.empty()) return;
        const auto mid = static_cast<std::ptrdiff_t>(v.size() / 2);
        out.push_back({v.begin(), v.begin() + mid});
        out.push_back({v.begin() + mid, v.end()});
        if (v.size() > 1) out.push_back({v.begin() + 1, v.end()});
      }};
}

std::vector<util::KeyIndex> pairs_of(const std::vector<std::uint64_t>& keys) {
  std::vector<util::KeyIndex> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    items[i] = util::KeyIndex{keys[i], static_cast<std::uint32_t>(i)};
  }
  return items;
}

bool same_permutation(const std::vector<util::KeyIndex>& a,
                      const std::vector<util::KeyIndex>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].index != b[i].index) return false;
  }
  return true;
}

TEST(BatchDiff, RadixMatchesStableSortOnDuplicateHeavyKeys) {
  SFCACD_PBT_CHECK(dup_heavy_keys(), [](const std::vector<std::uint64_t>& keys) {
    std::vector<util::KeyIndex> radix = pairs_of(keys);
    std::vector<util::KeyIndex> stable = pairs_of(keys);
    util::radix_sort_pairs(radix);
    std::stable_sort(stable.begin(), stable.end(),
                     [](const util::KeyIndex& x, const util::KeyIndex& y) {
                       return x.key < y.key;
                     });
    return same_permutation(radix, stable);
  });
}

TEST(BatchDiff, RadixHandlesDegenerateInputs) {
  std::vector<util::KeyIndex> empty;
  util::radix_sort_pairs(empty);
  EXPECT_TRUE(empty.empty());

  std::vector<util::KeyIndex> one = {{42u, 0u}};
  util::radix_sort_pairs(one);
  EXPECT_EQ(one[0].key, 42u);

  // All-equal keys: the varying mask is zero, so the sort must return
  // without a single scatter and keep input order.
  std::vector<util::KeyIndex> equal = pairs_of({9u, 9u, 9u, 9u});
  util::radix_sort_pairs(equal);
  for (std::size_t i = 0; i < equal.size(); ++i) {
    EXPECT_EQ(equal[i].index, i);
  }
}

}  // namespace
}  // namespace sfc::pbt
