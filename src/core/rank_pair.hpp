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
// One representation at every p: the (key = src·p + dst, count) list in
// strictly increasing key order, nonzero counts only — sweeps at paper
// scale (p = 65536) never allocate p² memory, and a histogram holds just
// its distinct pairs. It is filled one of two ways:
//   - static histograms (NFI, both FFI families, DynamicAcd's seed) come
//     from build_rank_pairs() below, which emits the list already sorted
//     and hands it to from_sorted(); the artifact-store codec decodes
//     straight into from_sorted() too. No staging, no sort.
//   - callers that add() in arbitrary order — DynamicAcd's PairDeltas,
//     ffi_logtree, operator+=, contention's both-ways mirror — land in a
//     bounded unsorted staging buffer that compact() sorts and merges.
//
// Beyond the fast path, the histogram itself is the observability
// artifact for contention modeling: for_each() exposes the exact
// per-rank-pair traffic matrix of a communication set.
#pragma once

#include <algorithm>
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
  using Entry = std::pair<std::uint64_t, std::uint64_t>;

  explicit RankPairAccumulator(topo::Rank procs) : p_(procs) {}

  /// A sealed histogram holding exactly `pairs`: (key = src·p + dst,
  /// count) entries with nonzero counts in strictly increasing key order
  /// (asserted in debug builds). The entry point for producers that emit
  /// pairs in key order — the list becomes the sorted aggregate as is,
  /// trimmed to its size, and never passes through the staging buffer.
  static RankPairAccumulator from_sorted(topo::Rank procs,
                                         std::vector<Entry> pairs);

  topo::Rank procs() const noexcept { return p_; }

  /// Record `count` communications from rank `src` to rank `dst`.
  void add(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    stage(src, dst, count);
  }

  /// Remove `count` previously recorded communications from rank `src` to
  /// rank `dst` — the retraction half of the incremental (delta) update
  /// path. Counts are unsigned, so this stages the two's-complement
  /// 0 - count and lets the modular sums of compact() net it out; every
  /// fold kernel is linear in the counts, so as long as the *multiset*
  /// never goes negative overall (each sub matches an earlier add), the
  /// folded totals stay exact. A per-pair count that a stale subtraction
  /// drives "negative" wraps to a huge value, which the differential
  /// dynamics suite detects immediately.
  void sub(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    stage(src, dst, std::uint64_t{0} - count);
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

  /// Non-owning view of the histogram for Topology::fold(). Compacts
  /// first; like for_each(), seal() a histogram shared across concurrent
  /// fold tasks before taking views. The view borrows this histogram's
  /// storage — it is invalidated by any later add().
  topo::PairCountsView view() const {
    compact();
    return topo::PairCountsView(p_, sorted_.data(), sorted_.size());
  }

  /// Force the staging buffer into the sorted aggregate now, then free
  /// the buffer and trim the sorted list to its size, so a sealed
  /// histogram holds just its distinct pairs (view()'s per-step
  /// compactions keep the buffer for reuse; only seal() frees it).
  /// compact() runs lazily on first fold/for_each and mutates the
  /// (mutable) representation, so a histogram shared across concurrent
  /// fold tasks must be sealed first — afterwards every const operation,
  /// seal() included, is a pure read.
  void seal() const;

  /// Bytes held by this histogram's backing storage (cache accounting).
  std::size_t memory_bytes() const noexcept {
    return (staging_.capacity() + sorted_.capacity()) * sizeof(Entry);
  }

  /// Total recorded communications (sum of all counts).
  std::uint64_t events() const;

  /// Invoke fn(src, dst, count) for every pair with a nonzero count, in
  /// key (row-major) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    view().for_each(std::forward<Fn>(fn));
  }

 private:
  /// Staging buffer cap before a sort-and-merge compaction (16 MiB).
  /// Only the arbitrary-order add()/sub() callers stage; from_sorted()
  /// histograms never do.
  static constexpr std::size_t kStagingCap = std::size_t{1} << 20;

  void stage(topo::Rank src, topo::Rank dst, std::uint64_t count);
  /// Merge the staging buffer into the sorted aggregate. Const because
  /// the pair *multiset* is unchanged — only its representation.
  void compact() const;

  topo::Rank p_;
  mutable std::vector<Entry> staging_;
  mutable std::vector<Entry> sorted_;
};

/// Build rule of build_rank_pairs: a transient p×p count scratch while
/// p² <= kScratchEntriesPerItem · items, source rows beyond. The scratch
/// costs a zeroing pass and a read-back pass over all p² entries, a few
/// entries per item under the rule, and it lets the items be counted in
/// the caller's order — array or Morton order, which walks the grid with
/// spatial locality. Rows visit the items in owner order instead, which
/// at small p scatters the grid probes across the whole domain: rows
/// alone ran table1_nfi, table2_ffi and fig6_topologies 13–44% slower
/// end to end at p = 256 (4-CPU x86 host, GCC 12). Past the rule the p²
/// passes would dominate, and the rows need only O(items + p) state.
inline constexpr std::uint64_t kScratchEntriesPerItem = 8;

/// The one builder of static histograms. Item i (i < n) is sent from
/// rank src[i]; scan(i, push) calls push(dst) once per destination rank
/// of item i, and every push stands for `weight` events. Returns the
/// sealed histogram through from_sorted(): either read off the p×p
/// scratch in row-major order, or emitted one source row at a time — the
/// items grouped by source rank (a counting sort, array order within a
/// rank), each row's destinations counted in a p-length counter with a
/// touched list, the touched list sorted. Rows arrive in key order, so
/// neither path stages or sorts pairs, and all scratch is freed before
/// returning. A row holds only the few destinations its SFC chunk's
/// surface touches (Gadouleau & Weinzierl bound that surface), so its
/// touched list is short.
template <typename Scan>
RankPairAccumulator build_rank_pairs(topo::Rank procs, const topo::Rank* src,
                                     std::size_t n, Scan&& scan,
                                     std::uint64_t weight = 1) {
  using Entry = RankPairAccumulator::Entry;
  const std::uint64_t p = procs;
  std::vector<Entry> pairs;
  if (p * p <= kScratchEntriesPerItem * n) {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p * p), 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t* row = counts.data() + src[i] * p;
      scan(i, [row, weight](topo::Rank dst) { row[dst] += weight; });
    }
    std::size_t nonzero = 0;
    for (const std::uint64_t c : counts) nonzero += c != 0 ? 1 : 0;
    pairs.reserve(nonzero);
    for (std::uint64_t k = 0; k < p * p; ++k) {
      if (counts[k] != 0) pairs.emplace_back(k, counts[k]);
    }
    return RankPairAccumulator::from_sorted(procs, std::move(pairs));
  }
  // Item indices grouped by source rank: a counting sort, O(n + p).
  std::vector<std::uint32_t> by_src(n);
  {
    std::vector<std::uint32_t> next(procs, 0);
    for (std::size_t i = 0; i < n; ++i) ++next[src[i]];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : next) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      by_src[next[src[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  pairs.reserve(n);  // about one pair per item at r = 1; seal() trims
  std::vector<std::uint64_t> counter(procs, 0);
  std::vector<topo::Rank> touched;
  const auto push = [&counter, &touched, weight](topo::Rank dst) {
    if (counter[dst] == 0) touched.push_back(dst);
    counter[dst] += weight;
  };
  for (std::size_t k = 0; k < n;) {
    const topo::Rank s = src[by_src[k]];
    for (; k < n && src[by_src[k]] == s; ++k) scan(by_src[k], push);
    std::sort(touched.begin(), touched.end());
    const std::uint64_t base = s * p;
    for (const topo::Rank dst : touched) {
      pairs.emplace_back(base + dst, std::exchange(counter[dst], 0));
    }
    touched.clear();
  }
  return RankPairAccumulator::from_sorted(procs, std::move(pairs));
}

// ------------------------------------------------- artifact-store codec

/// Append one self-describing record for `acc` to `out`: host-endian
/// u64s — procs, mode word (always 0), nonzero-pair count, then (key,
/// count) pairs with key = src·p + dst in key order. Compacts first
/// (seal() semantics), so serializing a shared histogram follows the
/// same sealing rule as view().
void rank_pairs_serialize(const RankPairAccumulator& acc,
                          std::vector<std::uint8_t>& out);

/// Decode the record at `offset` in [data, data+size), advancing offset
/// past it. Mode words 0 and 1 decode alike: 1 marks a record written
/// when small histograms were stored as p² arrays, and its payload is
/// the same key-ordered pair list. The pairs become the sorted list
/// through RankPairAccumulator::from_sorted, with no re-sort, so the
/// histogram comes back sealed.
/// Returns nullopt on malformed bytes — another mode word, a key out of
/// range, keys not strictly increasing, or a zero count (no producer
/// writes any of these). The artifact store's checksum makes that
/// unreachable for store-read payloads, but the codec still never trusts
/// its input.
std::optional<RankPairAccumulator> rank_pairs_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset);

/// Scratch aggregation of (src, dst) → modular count deltas for the
/// incremental (delta) consumers.
///
/// A delta walk touches the same few rank pairs thousands of times per
/// timestep. Every raw add()/sub() on an accumulator lands in the
/// staging buffer and pays its share of a compaction sort — the
/// dominant cost of an incremental step. A PairDeltas
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
  /// table keeps its capacity). add() with a modular count is exact.
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
