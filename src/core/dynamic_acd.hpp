// dynamic_acd.hpp — incremental ACD under particle motion (paper
// Section VI-A, ROADMAP item 2).
//
// AcdInstance answers "what does this frozen snapshot cost?"; DynamicAcd
// answers "what does the trajectory cost?" without paying a full
// O(all pairs) recompute per timestep. It keeps the particle assignment
// frozen (array order, partition, and owner ranks fixed at the last
// (re)build — exactly the paper's no-reorder regime) and maintains the
// NFI/FFI rank-pair histograms by an event algebra over the moved
// particles:
//
//   retract  — with the *pre-move* state, subtract every pair event a
//              mover participates in (NFI window pairs; FFI interpolation
//              / interaction events of every tree cell whose occupant set
//              or owner can change);
//   update   — apply the moves to the positions, occupancy grid, and
//              occupied-cell hierarchy;
//   assert   — mirror of retract with the *post-move* state, adding.
//
// Every event the move set does not touch is never re-enumerated, so a
// timestep costs O(moved particles · window + touched cells), and the
// resulting totals are bit-identical to a full recompute of the frozen
// order — the pbt_dynamics_diff suite pins this across curves,
// topologies, and move patterns. A batch is applied atomically: all
// movers vacate their old cells before any fills its new one, so swaps
// and displacement chains are valid move sets.
//
// Re-partitioning is lazy: each move tracks whether the particle's new
// curve key still falls inside its frozen chunk's key interval, and only
// when the displaced fraction crosses Options::repartition_threshold is
// the state re-sorted and rebuilt (the "how often must you re-order?"
// advisor in bench/ext_dynamics counts these).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/acd.hpp"
#include "fmm/dynamic_cells.hpp"

namespace sfc::core {

/// One relocation: the particle at array position `index` (in the
/// engine's *current* sorted order) moves to finest-level cell `to`.
template <int D>
struct ParticleMove {
  std::uint32_t index = 0;
  Point<D> to{};

  friend constexpr bool operator==(const ParticleMove&,
                                   const ParticleMove&) = default;
};

using ParticleMove2 = ParticleMove<2>;
using ParticleMove3 = ParticleMove<3>;

template <int D>
class DynamicAcd {
 public:
  struct Options {
    unsigned radius = 1;  ///< near-field window radius
    fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
    /// Displaced-particle fraction beyond which move_particles re-sorts
    /// the particles and rebuilds the frozen assignment. Set above 1
    /// (e.g. infinity) to keep the initial order forever.
    double repartition_threshold = 0.25;
    /// Test hook for the differential suite's self-test: skip the
    /// outgoing NFI retraction of each batch's first mover, simulating
    /// the classic stale-subtraction bug an incremental path can hide.
    bool fault_stale_subtraction = false;
  };

  /// Sorts `particles` by `curve` (identical order to AcdInstance) and
  /// builds the mutable state plus both histograms. `curve` must outlive
  /// the engine; it re-keys particles on every move and re-sorts on
  /// re-partition.
  DynamicAcd(std::vector<Point<D>> particles, unsigned level,
             const Curve<D>& curve, topo::Rank procs, Options opts = {});

  // The cell tree points into positions_; keep the engine in place.
  DynamicAcd(const DynamicAcd&) = delete;
  DynamicAcd& operator=(const DynamicAcd&) = delete;

  /// Apply one batch of moves (all vacate, then all fill). Requirements:
  /// indices in range and distinct, targets on the grid, and the final
  /// cells distinct — a mover's target may be another mover's old cell
  /// (swaps, chains), but never a stationary particle's cell. Throws
  /// std::invalid_argument on a violation, leaving the state unchanged.
  /// Moves whose target equals the current position are ignored.
  void move_particles(std::span<const ParticleMove<D>> moves);

  /// Near-field totals of the current positions under the frozen
  /// assignment — bit-identical to AcdInstance-from-frozen-order nfi().
  CommTotals nfi(const topo::Topology& net) const {
    return net.fold(nfi_acc_.view());
  }

  /// Far-field totals of the current positions under the frozen
  /// assignment — bit-identical to AcdInstance-from-frozen-order ffi().
  fmm::FfiTotals ffi(const topo::Topology& net) const {
    return fmm::ffi_fold(ffi_, net);
  }

  unsigned level() const noexcept { return level_; }
  topo::Rank procs() const noexcept { return procs_; }
  const Options& options() const noexcept { return opts_; }

  /// Current positions in the engine's sorted order. A re-partition
  /// permutes this array (and therefore the meaning of move indices).
  const std::vector<Point<D>>& particles() const noexcept {
    return positions_;
  }
  const fmm::Partition& partition() const noexcept { return part_; }

  /// Array index of the particle occupying finest-level `cell`, or -1 if
  /// the cell is empty. Lets a driver translate position-keyed moves into
  /// this engine's current index space (two engines over the same physical
  /// trajectory diverge in order once one of them re-partitions).
  std::int32_t index_at(const Point<D>& cell) const noexcept {
    return grid_.particle_at(cell);
  }

  /// Fraction of particles whose current curve key has left their frozen
  /// chunk's key interval — the re-partition trigger metric.
  double displaced_fraction() const noexcept {
    return positions_.empty() ? 0.0
                              : static_cast<double>(displaced_count_) /
                                    static_cast<double>(positions_.size());
  }

  /// Re-sorts performed so far (the advisor's re-order count).
  std::size_t repartitions() const noexcept { return repartitions_; }

  /// Cumulative moves applied (no-ops excluded).
  std::uint64_t moves_applied() const noexcept { return moves_applied_; }

 private:
  void build();
  void rebuild();
  void nfi_phase(const std::vector<ParticleMove<D>>& movers, bool retract);
  std::vector<std::unordered_set<std::uint64_t>> touched_cells(
      const std::vector<ParticleMove<D>>& movers) const;
  void ffi_snapshot(
      const std::vector<std::unordered_set<std::uint64_t>>& touched);
  void ffi_diff(const std::vector<std::unordered_set<std::uint64_t>>& touched);
  std::uint32_t pre_owner(unsigned level, std::uint64_t key) const;
  bool is_touched(
      const std::vector<std::unordered_set<std::uint64_t>>& touched,
      unsigned level, std::uint64_t key) const noexcept {
    const std::vector<std::uint64_t>& bits = touched_bits_[level];
    if (!bits.empty()) return (bits[key >> 6] >> (key & 63)) & 1u;
    return touched[level].count(key) != 0;
  }
  void track_displacement(std::uint32_t index, const Point<D>& to);

  const Curve<D>* curve_;
  unsigned level_;
  topo::Rank procs_;
  Options opts_;
  std::vector<Point<D>> positions_;  // current positions, frozen order
  fmm::Partition part_;
  std::vector<topo::Rank> owners_;
  fmm::OccupancyGrid<D> grid_;
  fmm::DynamicCellTree<D> tree_;
  RankPairAccumulator nfi_acc_;  // true directed NFI event multiset
  fmm::FfiHistograms ffi_;
  // Per-batch (src, dst) delta scratches, flushed into the histograms at
  // the end of every move_particles call (empty between batches). The
  // delta walks hit the same few rank pairs thousands of times per step;
  // netting them here first keeps the accumulators' staging
  // buffers — and their compaction sorts — off the incremental hot path,
  // and lets a retract/assert pair with unchanged owners vanish without
  // ever reaching the histogram.
  PairDeltas nfi_deltas_;
  PairDeltas ffi_interp_deltas_;
  PairDeltas ffi_inter_deltas_;
  // Per-chunk [first, last] curve-key interval at the last (re)build.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunk_keys_;
  std::vector<std::uint8_t> displaced_;
  std::size_t displaced_count_ = 0;
  std::size_t repartitions_ = 0;
  std::uint64_t moves_applied_ = 0;
  std::vector<std::uint8_t> mover_flag_;  // scratch, zero outside batches
  // Dense per-level mirrors of the touched sets for the delta walk's
  // membership tests (same cap as the cell tree's occupancy bitmaps);
  // zero outside batches — set before the snapshot, sparsely cleared
  // after the diff walk.
  std::vector<std::vector<std::uint64_t>> touched_bits_;
  // Pre-move owner of every touched cell, captured before the update so
  // the single post-update FFI walk can emit retract/assert event pairs
  // in one enumeration. Levels within the cell tree's dense-owner cap
  // use flat arrays (values gated by touched_bits_, so they need no
  // clearing); deeper levels fall back to a per-batch map.
  std::vector<std::vector<std::uint32_t>> pre_owner_dense_;
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>>
      pre_owner_map_;
};

/// Derive a valid move batch from the drift dynamics of
/// dist::drift_particles. fraction >= 1 reproduces that function exactly
/// (every particle attempts one step; the moves are the diff); a smaller
/// fraction lets only ⌈fraction·n⌉ evenly spread particles attempt a
/// step, modeling the slow configuration change of an almost-settled
/// system. Deterministic in (positions, level, seed, step, fraction).
template <int D>
std::vector<ParticleMove<D>> drift_moves(const std::vector<Point<D>>& positions,
                                         unsigned level, std::uint64_t seed,
                                         std::uint64_t step,
                                         double fraction = 1.0);

extern template class DynamicAcd<2>;
extern template class DynamicAcd<3>;
extern template std::vector<ParticleMove<2>> drift_moves<2>(
    const std::vector<Point<2>>&, unsigned, std::uint64_t, std::uint64_t,
    double);
extern template std::vector<ParticleMove<3>> drift_moves<3>(
    const std::vector<Point<3>>&, unsigned, std::uint64_t, std::uint64_t,
    double);

}  // namespace sfc::core
