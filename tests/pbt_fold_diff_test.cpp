// pbt_fold_diff_test.cpp — differential suite for the Topology::fold
// contract (the DistanceFold API).
//
// Every topology advertises a fold strategy (factorized closed form,
// dense hop table, streamed BFS) and all of them must produce the exact
// same uint64 totals: integer addition commutes and multiplication
// distributes, so any kernel is a reordering of the same per-event sum.
// These properties pin
//   * factorized fold == dense DistanceTable fold, bit-identical, for
//     every paper topology at table-sized p;
//   * fold totals == the BFS oracle graph's fold at small p;
//   * the streamed graph path == the closed form beyond the table budget;
//   * metamorphic invariance of torus folds under per-axis rotation
//     (exercising the relabel remap delegation); and
//   * relabeled folds == folding an explicitly permuted histogram.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rank_pair.hpp"
#include "obs/metrics.hpp"
#include "sfc/curve.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "topology/factory.hpp"
#include "topology/graph.hpp"
#include "topology/grid.hpp"
#include "topology/hypercube.hpp"
#include "topology/linear.hpp"
#include "topology/relabel.hpp"
#include "oracles/oracles.hpp"

namespace sfc {
namespace {

using pbt::TopoCase;
using pbt::topology_case;
using pbt::unsigned_in;

using TopoSeed = std::pair<TopoCase, unsigned>;
using UnsignedPair = std::pair<unsigned, unsigned>;

std::string show(const core::CommTotals& t) {
  return "{hops=" + std::to_string(t.hops) +
         ", count=" + std::to_string(t.count) + "}";
}

/// Deterministic (src, dst, count) stream from a SplitMix64-style walk.
core::RankPairAccumulator histogram_of(topo::Rank p, std::size_t n,
                                       std::uint64_t seed) {
  core::RankPairAccumulator acc(p);
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    acc.add(static_cast<topo::Rank>((state >> 33) % p),
            static_cast<topo::Rank>((state >> 13) % p), 1 + (state & 3));
  }
  return acc;
}

std::vector<topo::Rank> random_perm(topo::Rank p, std::uint64_t seed) {
  std::vector<topo::Rank> perm(p);
  std::iota(perm.begin(), perm.end(), topo::Rank{0});
  std::uint64_t state = seed ^ 0xd1b54a32d192ed03ull;
  for (topo::Rank i = p; i > 1; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(perm[i - 1], perm[(state >> 29) % i]);
  }
  return perm;
}

// --------------------------------- factorized vs dense-table fold

TEST(FoldDiff, FactorizedMatchesDenseTableFold) {
  const auto gen = pbt::pair_of(topology_case(256), unsigned_in(0, 1u << 30));
  SFCACD_PBT_CHECK(
      gen,
      [](const TopoSeed& v)
          -> std::optional<std::string> {
        const TopoCase& c = v.first;
        const unsigned seed = v.second;
        const auto net = c.make();
        if (net->fold_strategy() != topo::FoldStrategy::kFactorized) {
          return "paper topology did not report a factorized strategy";
        }
        const topo::Rank p = net->size();
        const core::RankPairAccumulator acc = histogram_of(p, 1500, seed);
        const core::CommTotals fold = net->fold(acc.view());
        const core::CommTotals want = acc.fold(net->dense_table());
        if (!(fold == want)) {
          return "factorized fold " + show(fold) +
                 " != dense-table fold " + show(want);
        }
        return std::nullopt;
      });
}

TEST(FoldDiff, FoldMatchesBfsOracleGraphFold) {
  const auto gen = pbt::pair_of(topology_case(64), unsigned_in(0, 1u << 30));
  SFCACD_PBT_CHECK(
      gen,
      [](const TopoSeed& v)
          -> std::optional<std::string> {
        const TopoCase& c = v.first;
        const unsigned seed = v.second;
        const auto net = c.make();
        const topo::GraphTopology g = oracle::oracle_graph(c);
        if (net->size() != g.size()) return "size mismatch vs oracle graph";
        const core::RankPairAccumulator acc =
            histogram_of(net->size(), 800, seed);
        const core::CommTotals fold = net->fold(acc.view());
        const core::CommTotals want = g.fold(acc.view());
        if (!(fold == want)) {
          return "closed-form fold " + show(fold) +
                 " != BFS oracle fold " + show(want);
        }
        return std::nullopt;
      });
}

// --------------------------------- streamed path beyond the budget

TEST(FoldDiff, GraphStreamedMatchesFactorizedBeyondTableBudget) {
  // Smallest ring whose p² exceeds the table entry budget: the graph
  // must stream one BFS row per distinct source instead of building the
  // dense table, and still match the closed-form ring kernel exactly.
  const topo::Rank p = 4100;
  ASSERT_FALSE(topo::distance_table_fits(p));
  const topo::GraphTopology g = topo::build_ring_graph(p);
  EXPECT_EQ(g.fold_strategy(), topo::FoldStrategy::kStreamed);
  const topo::RingTopology ring(p);
  EXPECT_EQ(ring.fold_strategy(), topo::FoldStrategy::kFactorized);

  const core::RankPairAccumulator acc = histogram_of(p, 20000, 7);
  const core::CommTotals streamed = g.fold(acc.view());
  const core::CommTotals factorized = ring.fold(acc.view());
  EXPECT_EQ(streamed.hops, factorized.hops);
  EXPECT_EQ(streamed.count, factorized.count);
}

// --------------------------------- metamorphic: torus axis rotation

TEST(FoldDiff, TorusFoldInvariantUnderPerAxisRotation) {
  const auto gen = pbt::pair_of(unsigned_in(1, 4), unsigned_in(0, 1u << 30));
  SFCACD_PBT_CHECK(
      gen,
      [](const UnsignedPair& v)
          -> std::optional<std::string> {
        const unsigned level = v.first;
        const unsigned seed = v.second;
        const auto curve = make_curve<2>(CurveKind::kHilbert);
        const topo::TorusTopology<2> torus(level, *curve);
        const topo::Rank p = torus.size();
        const std::uint32_t s = torus.side();
        // Wrapped distances depend only on coordinate differences mod s,
        // so translating every rank by (dx, dy) is an automorphism: the
        // relabeled fold must be bit-identical.
        std::vector<topo::Rank> rank_at(p);
        for (topo::Rank r = 0; r < p; ++r) {
          const Point<2>& q = torus.coordinate(r);
          rank_at[q[1] * s + q[0]] = r;
        }
        const std::uint32_t dx = seed % s;
        const std::uint32_t dy = (seed / 7) % s;
        std::vector<topo::Rank> perm(p);
        for (topo::Rank r = 0; r < p; ++r) {
          const Point<2>& q = torus.coordinate(r);
          perm[r] = rank_at[((q[1] + dy) % s) * s + ((q[0] + dx) % s)];
        }
        const topo::RelabeledTopology view(torus, perm);
        const core::RankPairAccumulator acc = histogram_of(p, 1500, seed);
        const core::CommTotals base = torus.fold(acc.view());
        const core::CommTotals rotated = view.fold(acc.view());
        if (!(base == rotated)) {
          return "torus fold changed under rotation by (" +
                 std::to_string(dx) + "," + std::to_string(dy) +
                 "): " + show(rotated) + " != " + show(base);
        }
        return std::nullopt;
      });
}

// --------------------------------- relabel remap delegation

TEST(FoldDiff, RelabeledFoldMatchesExplicitlyPermutedHistogram) {
  const auto gen = pbt::pair_of(topology_case(128), unsigned_in(0, 1u << 30));
  SFCACD_PBT_CHECK(
      gen,
      [](const TopoSeed& v)
          -> std::optional<std::string> {
        const TopoCase& c = v.first;
        const unsigned seed = v.second;
        const auto net = c.make();
        const topo::Rank p = net->size();
        const std::vector<topo::Rank> perm = random_perm(p, seed);
        const topo::RelabeledTopology view(*net, perm);
        if (view.fold_strategy() != net->fold_strategy()) {
          return "relabel changed the advertised fold strategy";
        }

        const core::RankPairAccumulator acc = histogram_of(p, 1000, seed);
        core::RankPairAccumulator mapped(p);
        acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t k) {
          mapped.add(perm[a], perm[b], k);
        });
        const core::CommTotals via_view = view.fold(acc.view());
        const core::CommTotals via_map = net->fold(mapped.view());
        if (!(via_view == via_map)) {
          return "relabeled fold " + show(via_view) +
                 " != explicitly permuted fold " + show(via_map);
        }

        // Nested relabels compose the remap tables inside fold_pairs.
        const std::vector<topo::Rank> perm2 = random_perm(p, seed ^ 0xabcd);
        const topo::RelabeledTopology nested(view, perm2);
        core::RankPairAccumulator mapped2(p);
        acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t k) {
          mapped2.add(perm[perm2[a]], perm[perm2[b]], k);
        });
        const core::CommTotals via_nested = nested.fold(acc.view());
        const core::CommTotals via_map2 = net->fold(mapped2.view());
        if (!(via_nested == via_map2)) {
          return "nested relabel fold " + show(via_nested) +
                 " != composed permutation fold " + show(via_map2);
        }
        return std::nullopt;
      });
}

// --------------------------------- the table-budget boundary, pinned

TEST(FoldDiff, BitIdenticalAtTableBudgetBoundary) {
  ASSERT_TRUE(topo::distance_table_fits(4096));
  ASSERT_FALSE(topo::distance_table_fits(4097));

  const topo::HypercubeTopology cube(4096);
  const core::RankPairAccumulator hc = histogram_of(4096, 50000, 11);
  const core::CommTotals cube_fold = cube.fold(hc.view());
  const core::CommTotals cube_want = hc.fold(cube.dense_table());
  EXPECT_EQ(cube_fold.hops, cube_want.hops);
  EXPECT_EQ(cube_fold.count, cube_want.count);

  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const topo::TorusTopology<2> torus(6, *curve);  // 64×64 = 4096 ranks
  const core::CommTotals torus_fold = torus.fold(hc.view());
  const core::CommTotals torus_want = hc.fold(torus.dense_table());
  EXPECT_EQ(torus_fold.hops, torus_want.hops);
  EXPECT_EQ(torus_fold.count, torus_want.count);
}

// --------------------------------- strategy observability

TEST(FoldDiff, FoldStrategyCountersTrackDispatch) {
  obs::Registry& reg = obs::Registry::instance();
  const std::uint64_t factorized0 =
      reg.counter("topo.fold.factorized").value();
  const std::uint64_t dense0 = reg.counter("topo.fold.dense").value();

  const topo::RingTopology ring(32);
  const core::RankPairAccumulator acc = histogram_of(32, 100, 3);
  (void)ring.fold(acc.view());
  EXPECT_EQ(reg.counter("topo.fold.factorized").value(), factorized0 + 1);

  const topo::GraphTopology g = topo::build_ring_graph(32);
  (void)g.fold(acc.view());
  EXPECT_EQ(reg.counter("topo.fold.dense").value(), dense0 + 1);
}

}  // namespace
}  // namespace sfc
