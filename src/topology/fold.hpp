// fold.hpp — the topology↔aggregation fold contract.
//
// The ACD engines reduce every communication set to a rank-pair
// histogram; the topology's job is to fold it: Σ count(a,b) · d(a,b).
// Historically consumers asked the topology for a dense p×p hop table
// (Topology::table()) and folded it themselves, which hard-gated every
// study at p <= 4096. The fold interface inverts that contract: callers
// hand the topology a *view* of their histogram and the topology picks a
// structure-exploiting kernel — closed-form topologies factorize the fold
// (per-axis delta histograms, popcount buckets, LCA depths) and never
// materialize p×p state, so studies run at p = 2^20 and beyond in O(p)
// memory. The dense table survives only as an internal strategy for
// topologies without structure (small explicit graphs). The histogram
// has one shape at every p — core::RankPairAccumulator's key-sorted
// (src·p + dst, count) list of distinct pairs — so every kernel costs
// O(distinct pairs), never O(p²), on the histogram side.
//
// Every strategy computes the exact same uint64 sums — integer addition
// commutes and multiplication distributes — so folds are bit-identical
// across strategies (enforced by tests/pbt_fold_diff_test.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

#include "core/totals.hpp"

namespace sfc::topo {

using Rank = std::uint32_t;  // redeclared here to keep this header light

/// How a topology executes a fold. Exposed for cache keys and the obs
/// counters (topo.fold.*).
enum class FoldStrategy {
  kDense,       ///< build/reuse the p×p hop table, multiply-accumulate
  kFactorized,  ///< closed-form kernel over per-structure histograms
  kStreamed,    ///< per-pair distance (BFS row streaming for graphs)
};

std::string_view fold_strategy_name(FoldStrategy s) noexcept;

/// Non-owning view of a (src rank, dst rank) → count histogram, the sole
/// input of Topology::fold(): entries of (key = a·p + b, count) with
/// nonzero counts, sorted by key. An optional rank remap lets
/// permutation views (RelabeledTopology) redirect a fold to their base
/// topology without copying the histogram.
class PairCountsView {
 public:
  using Entry = std::pair<std::uint64_t, std::uint64_t>;

  PairCountsView(Rank procs, const Entry* entries, std::size_t size) noexcept
      : procs_(procs), entries_(entries), size_(size) {}

  Rank procs() const noexcept { return procs_; }
  const Rank* remap() const noexcept { return remap_; }

  /// Distinct nonzero pairs (the name predates the one representation,
  /// when a dense view could only bound them by p²).
  std::size_t distinct_pairs_bound() const noexcept { return size_; }

  /// A copy of this view whose emitted ranks pass through `map` (size
  /// >= procs()). Composition on an already-remapped view is the
  /// caller's job (compose the tables first) — asserted here.
  PairCountsView remapped(const Rank* map) const noexcept {
    assert(remap_ == nullptr && "compose remap tables before nesting");
    PairCountsView v = *this;
    v.remap_ = map;
    return v;
  }

  /// A copy of this view with the remap dropped (for composing tables).
  PairCountsView without_remap() const noexcept {
    PairCountsView v = *this;
    v.remap_ = nullptr;
    return v;
  }

  /// Invoke fn(src, dst, count) for every pair, in ascending (src, dst)
  /// order of the *stored* ranks (a remap permutes the emitted ranks but
  /// not the iteration order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const Rank* m = remap_;
    for (std::size_t i = 0; i < size_; ++i) {
      const Rank a = static_cast<Rank>(entries_[i].first / procs_);
      const Rank b = static_cast<Rank>(entries_[i].first % procs_);
      if (m != nullptr) {
        fn(m[a], m[b], entries_[i].second);
      } else {
        fn(a, b, entries_[i].second);
      }
    }
  }

 private:
  Rank procs_ = 0;
  const Entry* entries_ = nullptr;
  std::size_t size_ = 0;
  const Rank* remap_ = nullptr;
};

}  // namespace sfc::topo
