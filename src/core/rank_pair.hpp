// rank_pair.hpp — (source rank, destination rank) → count aggregation.
//
// The ACD engines enumerate O(n · window) communication events but only
// p² distinct rank pairs exist, so the hot loops record events into one
// of these histograms and the totals are recovered by handing view() to
// Topology::fold(), which picks a structure-exploiting kernel (factorized
// closed form, dense hop table, or streamed BFS). Integer multiplication
// is exact repeated addition, so the folded totals are bit-identical to
// summing the per-event distances in any order — and identical across
// fold strategies.
//
// Storage adapts to p: a dense p² count array while p² fits the budget
// (p <= 2048 by default), and a sorted-sparse (key → count) list beyond —
// sweeps at paper scale (p = 65536) never allocate p² memory. Sparse
// histograms are filled one of two ways:
//   - producers that emit pairs already in key order hand the list to
//     from_sorted(): the sparse NFI build (one source row at a time) and
//     the artifact-store codec. No staging, no sort.
//   - callers that add() in arbitrary order — the FFI histograms,
//     DynamicAcd and its PairDeltas, ffi_logtree, operator+= — land in a
//     bounded unsorted staging buffer that compact() sorts and merges.
//
// Beyond the fast path, the histogram itself is the observability
// artifact for contention modeling: for_each() exposes the exact
// per-rank-pair traffic matrix of a communication set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/totals.hpp"
#include "topology/distance_table.hpp"
#include "topology/topology.hpp"

namespace sfc::core {

class RankPairAccumulator {
 public:
  /// Dense-mode budget: p² count entries at 8 bytes each (32 MiB).
  static constexpr std::size_t kDenseEntryBudget = std::size_t{1} << 22;

  /// `dense_budget` is a test hook: pass 0 to force the sparse fallback.
  explicit RankPairAccumulator(topo::Rank procs,
                               std::size_t dense_budget = kDenseEntryBudget);

  /// A sealed sparse histogram holding exactly `pairs`: (key = src·p +
  /// dst, count) entries with nonzero counts in strictly increasing key
  /// order (asserted in debug builds). The entry point for producers
  /// that emit pairs in key order — the list becomes the sorted
  /// aggregate as is, trimmed to its size, and never passes through the
  /// staging buffer.
  static RankPairAccumulator from_sorted(
      topo::Rank procs,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs);

  topo::Rank procs() const noexcept { return p_; }
  bool dense() const noexcept { return is_dense_; }

  /// Record `count` communications from rank `src` to rank `dst`.
  void add(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    if (is_dense_) {
      dense_[static_cast<std::size_t>(src) * p_ + dst] += count;
    } else {
      add_sparse(src, dst, count);
    }
  }

  /// Remove `count` previously recorded communications from rank `src` to
  /// rank `dst` — the retraction half of the incremental (delta) update
  /// path. Counts are unsigned, so sparse mode stages the two's-complement
  /// 0 - count and lets the modular sums of compact() net it out; every
  /// fold kernel is linear in the counts, so as long as the *multiset*
  /// never goes negative overall (each sub matches an earlier add), the
  /// folded totals stay exact. A per-pair count that a stale subtraction
  /// drives "negative" wraps to a huge value, which the differential
  /// dynamics suite detects immediately.
  void sub(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    if (is_dense_) {
      dense_[static_cast<std::size_t>(src) * p_ + dst] -= count;
    } else {
      add_sparse(src, dst, std::uint64_t{0} - count);
    }
  }

  /// Dense-mode count row for a fixed source rank (nullptr in sparse
  /// mode) — lets kernels hoist the row base out of their inner loops.
  std::uint64_t* row(topo::Rank src) noexcept {
    return is_dense_ ? dense_.data() + static_cast<std::size_t>(src) * p_
                     : nullptr;
  }

  /// Merge another histogram (same processor count) into this one.
  RankPairAccumulator& operator+=(const RankPairAccumulator& o);

  /// Fold against a prebuilt hop table: Σ count(a,b) · table(a,b).
  /// Test/oracle path — production consumers hand view() to
  /// Topology::fold() and let the topology pick its kernel.
  CommTotals fold(const topo::DistanceTable& table) const;

  /// Fold with one distance() call per *distinct* pair — the oracle path
  /// exercising the virtual distance directly (still O(pairs)).
  CommTotals fold(const topo::Topology& net) const;

  /// Non-owning view of the histogram for Topology::fold(). Sparse mode
  /// compacts first; like for_each(), seal() a histogram shared across
  /// concurrent fold tasks before taking views. The view borrows this
  /// histogram's storage — it is invalidated by any later add().
  topo::PairCountsView view() const {
    if (is_dense_) return topo::PairCountsView::dense(p_, dense_.data());
    compact();
    return topo::PairCountsView::sparse(p_, sorted_.data(), sorted_.size());
  }

  /// Force the sparse-mode staging buffer into the sorted aggregate now,
  /// then free the buffer and trim the sorted list to its size, so a
  /// sealed histogram holds just its distinct pairs (view()'s per-step
  /// compactions keep the buffer for reuse; only seal() frees it).
  /// compact() runs lazily on first fold/for_each and mutates the
  /// (mutable) representation, so a histogram shared across concurrent
  /// fold tasks must be sealed first — afterwards every const operation,
  /// seal() included, is a pure read. No-op in dense mode.
  void seal() const;

  /// Bytes held by this histogram's backing storage (cache accounting).
  std::size_t memory_bytes() const noexcept {
    return dense_.capacity() * sizeof(std::uint64_t) +
           (staging_.capacity() + sorted_.capacity()) *
               sizeof(std::pair<std::uint64_t, std::uint64_t>);
  }

  /// Total recorded communications (sum of all counts).
  std::uint64_t events() const;

  /// Invoke fn(src, dst, count) for every pair with a nonzero count.
  /// Dense mode iterates in row-major order; sparse mode in key order
  /// (the same order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (is_dense_) {
      std::size_t k = 0;
      for (topo::Rank a = 0; a < p_; ++a) {
        for (topo::Rank b = 0; b < p_; ++b, ++k) {
          if (dense_[k] != 0) fn(a, b, dense_[k]);
        }
      }
      return;
    }
    compact();
    for (const auto& [key, count] : sorted_) {
      fn(static_cast<topo::Rank>(key / p_), static_cast<topo::Rank>(key % p_),
         count);
    }
  }

 private:
  /// Staging buffer cap before a sort-and-merge compaction (16 MiB).
  /// Only the arbitrary-order add()/sub() callers stage; from_sorted()
  /// histograms never do.
  static constexpr std::size_t kStagingCap = std::size_t{1} << 20;

  void add_sparse(topo::Rank src, topo::Rank dst, std::uint64_t count);
  /// Merge the staging buffer into the sorted aggregate. Const because
  /// the pair *multiset* is unchanged — only its representation.
  void compact() const;

  topo::Rank p_;
  bool is_dense_;
  std::vector<std::uint64_t> dense_;  // p² counts (dense mode only)
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> staging_;
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_;
};

// ------------------------------------------------- artifact-store codec

/// Append one self-describing record for `acc` to `out`: host-endian
/// u64s — procs, mode flag (1 = dense), nonzero-pair count, then (key,
/// count) pairs with key = src·p + dst in key order. Sparse histograms
/// compact first (seal() semantics), so serializing a shared histogram
/// follows the same sealing rule as view().
void rank_pairs_serialize(const RankPairAccumulator& acc,
                          std::vector<std::uint8_t>& out);

/// Decode the record at `offset` in [data, data+size), advancing offset
/// past it. The restored accumulator reproduces the recorded dense or
/// sparse mode exactly (via the ctor's budget hook), independent of what
/// the default budget would choose today, and comes back sealed: the
/// pairs fill the dense array, or become the sorted list through
/// RankPairAccumulator::from_sorted, with no re-sort.
/// Returns nullopt on malformed bytes — a key out of range, keys not
/// strictly increasing, a zero count, or a dense record with p² above
/// kDenseEntryBudget (no producer writes any of these). The artifact store's checksum makes that unreachable for
/// store-read payloads, but the codec still never trusts its input.
std::optional<RankPairAccumulator> rank_pairs_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset);

/// Scratch aggregation of (src, dst) → modular count deltas for the
/// incremental (delta) consumers.
///
/// A delta walk touches the same few rank pairs thousands of times per
/// timestep. In dense mode that is harmless (each event is one array
/// update), but in sparse mode every raw add()/sub() lands in the
/// staging buffer and pays its share of a large compaction sort — the
/// dominant cost of an incremental step at paper-scale p. A PairDeltas
/// nets the step's events by pair first (open addressing, modular
/// arithmetic, so retract/assert pairs that cancel vanish here) and
/// flush_into() forwards only the surviving net entries. Every count is
/// modular, so flushing preserves the multiset exactly regardless of
/// how events were grouped.
class PairDeltas {
 public:
  explicit PairDeltas(topo::Rank procs) : p_(procs) { rehash(1024); }

  void add(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    accum(static_cast<std::uint64_t>(src) * p_ + dst, count);
  }
  void sub(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    accum(static_cast<std::uint64_t>(src) * p_ + dst,
          std::uint64_t{0} - count);
  }

  /// Distinct pairs currently held (zero-net pairs included until flush).
  std::size_t entries() const noexcept { return used_; }

  /// Forward every nonzero net delta into `acc` and reset to empty (the
  /// table keeps its capacity). add() with a modular count is exact in
  /// both accumulator modes.
  void flush_into(RankPairAccumulator& acc) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == kEmptyKey) continue;
      acc.add(static_cast<topo::Rank>(keys_[i] / p_),
              static_cast<topo::Rank>(keys_[i] % p_), deltas_[i]);
    }
    if (used_ != 0) {
      std::fill(keys_.begin(), keys_.end(), kEmptyKey);
      used_ = 0;
    }
  }

 private:
  /// Keys are src·p + dst < p² — never the empty sentinel.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::size_t mix(std::uint64_t key) noexcept {
    key *= 0x9E3779B97F4A7C15ull;  // Fibonacci hashing
    return static_cast<std::size_t>(key >> 32 ^ key);
  }

  void accum(std::uint64_t key, std::uint64_t delta) {
    std::size_t i = mix(key) & mask_;
    while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == key) {
      deltas_[i] += delta;
      return;
    }
    keys_[i] = key;
    deltas_[i] = delta;
    // Grow at 70% load: linear probing needs slack to stay O(1).
    if (++used_ * 10 >= keys_.size() * 7) rehash(keys_.size() * 2);
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_deltas = std::move(deltas_);
    keys_.assign(capacity, kEmptyKey);
    deltas_.assign(capacity, 0);
    mask_ = capacity - 1;
    used_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) accum(old_keys[i], old_deltas[i]);
    }
  }

  topo::Rank p_;
  std::vector<std::uint64_t> keys_;    // kEmptyKey = vacant slot
  std::vector<std::uint64_t> deltas_;  // modular net counts
  std::size_t used_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace sfc::core
