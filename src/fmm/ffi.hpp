// ffi.hpp — the far-field interaction (FFI) communication model.
//
// Paper Sections III–IV. The domain quadtree (octree in 3-D) is restricted
// to its *occupied* cells: a cell at any resolution participates iff it
// contains at least one particle. Each occupied cell is represented on the
// network by an owner processor — by the paper's convention, the processor
// holding the cell's lowest particle in the particle-order SFC's linear
// ordering. Three communication families are counted:
//
//   * interpolation  — upward accumulation: every occupied non-root cell
//     sends to its parent (child owner -> parent owner);
//   * anterpolation  — downward accumulation: the mirror of interpolation
//     (parent owner -> child owner), identical distances;
//   * interaction lists — every occupied cell c receives from each occupied
//     cell d in its FMM interaction list (owner(d) -> owner(c)).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rank_pair.hpp"
#include "core/totals.hpp"
#include "fmm/partition.hpp"
#include "sfc/point.hpp"
#include "topology/topology.hpp"

namespace sfc::fmm {

/// The occupied-cell hierarchy. Cells at each level are kept sorted by
/// Morton key, so a parent's key is the child's key shifted right by D and
/// coarsening is a single linear grouping pass.
template <int D>
class CellTree {
 public:
  struct Cell {
    std::uint64_t key;           ///< Morton key of the cell at its level
    std::uint32_t min_particle;  ///< smallest sorted-particle index inside
  };

  /// `particles` must be sorted by the particle-order SFC (the min_particle
  /// fields implement the paper's lowest-particle ownership convention).
  CellTree(const std::vector<Point<D>>& particles, unsigned level);

  unsigned finest_level() const noexcept { return finest_; }

  /// Occupied cells at `level` (0 = root), sorted by key.
  const std::vector<Cell>& cells(unsigned level) const noexcept {
    return levels_[level];
  }

  /// Index of `key` in cells(level), or -1 if that cell is unoccupied.
  /// O(1) via a dense per-level table up to 2^24 cells per level, binary
  /// search beyond (the interaction-list pass makes ~27 of these lookups
  /// per occupied cell, so this is the FFI model's hottest operation).
  std::int64_t find(unsigned level, std::uint64_t key) const noexcept {
    if (level < dense_.size() && !dense_[level].empty()) {
      return dense_[level][key];
    }
    return find_sparse(level, key);
  }

  /// Total occupied cells over all levels (root included).
  std::size_t total_cells() const noexcept;

  /// Bytes held by the level lists and dense lookup tables
  /// (sweep-cache accounting).
  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const auto& l : levels_) bytes += l.capacity() * sizeof(Cell);
    for (const auto& d : dense_) bytes += d.capacity() * sizeof(std::int32_t);
    return bytes;
  }

 private:
  std::int64_t find_sparse(unsigned level, std::uint64_t key) const noexcept;

  unsigned finest_;
  std::vector<std::vector<Cell>> levels_;  // index = level
  // dense_[l][morton key] = index into levels_[l], or -1. Only built for
  // levels whose full grid fits the memory budget.
  std::vector<std::vector<std::int32_t>> dense_;
};

struct FfiTotals {
  core::CommTotals interpolation;
  core::CommTotals anterpolation;
  core::CommTotals interaction;

  core::CommTotals total() const noexcept {
    return interpolation + anterpolation + interaction;
  }
};

/// Evaluate the FFI model on a prepared cell tree. Hot path: each level
/// histograms its (src rank, dst rank) pairs (core/rank_pair.hpp) and
/// hands the histograms to the topology's fold kernel — no per-edge
/// distance dispatch. Bit-identical to ffi_totals_direct.
template <int D>
FfiTotals ffi_totals(const CellTree<D>& tree, const Partition& part,
                     const topo::Topology& net);

/// Reference implementation with one virtual distance() call per
/// communication; the equivalence tests pin ffi_totals to this path.
template <int D>
FfiTotals ffi_totals_direct(const CellTree<D>& tree, const Partition& part,
                            const topo::Topology& net);

/// Topology-independent stage of ffi_totals: the rank-pair histograms of
/// the two distinct FFI communication families. Anterpolation is the
/// exact mirror of interpolation (same pair counts, symmetric hop
/// distances), so it carries no histogram of its own — ffi_fold copies
/// the folded interpolation totals.
struct FfiHistograms {
  core::RankPairAccumulator interpolation;
  core::RankPairAccumulator interaction;

  explicit FfiHistograms(topo::Rank procs)
      : interpolation(procs), interaction(procs) {}

  std::size_t memory_bytes() const noexcept {
    return interpolation.memory_bytes() + interaction.memory_bytes();
  }
};

/// Artifact-store codec for FfiHistograms: the two rank-pair records
/// back to back (core::rank_pairs_serialize format).
inline void ffi_histograms_serialize(const FfiHistograms& hist,
                                     std::vector<std::uint8_t>& out) {
  core::rank_pairs_serialize(hist.interpolation, out);
  core::rank_pairs_serialize(hist.interaction, out);
}

/// Decode at `offset`, advancing past both records; nullopt on malformed
/// bytes or mismatched processor counts.
inline std::optional<FfiHistograms> ffi_histograms_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  auto interpolation = core::rank_pairs_deserialize(data, size, offset);
  if (!interpolation) return std::nullopt;
  auto interaction = core::rank_pairs_deserialize(data, size, offset);
  if (!interaction) return std::nullopt;
  if (interpolation->procs() != interaction->procs()) return std::nullopt;
  FfiHistograms hist(interpolation->procs());
  hist.interpolation = std::move(*interpolation);
  hist.interaction = std::move(*interaction);
  return hist;
}

/// Build the FFI histograms for a prepared cell tree. The sweep engine
/// caches one of these per (sample, particle order, p) and folds it
/// against every topology / processor order that shares those inputs —
/// ffi_fold(histograms, net) is bit-identical to ffi_totals over the
/// same inputs.
template <int D>
FfiHistograms ffi_histograms(const CellTree<D>& tree, const Partition& part);

/// Fold prebuilt FFI histograms against a topology (cached hop table when
/// p fits the table budget, per-pair distance() beyond it).
FfiTotals ffi_fold(const FfiHistograms& hist, const topo::Topology& net);

extern template class CellTree<2>;
extern template class CellTree<3>;
extern template FfiTotals ffi_totals<2>(const CellTree<2>&, const Partition&,
                                        const topo::Topology&);
extern template FfiTotals ffi_totals<3>(const CellTree<3>&, const Partition&,
                                        const topo::Topology&);
extern template FfiTotals ffi_totals_direct<2>(const CellTree<2>&,
                                               const Partition&,
                                               const topo::Topology&);
extern template FfiTotals ffi_totals_direct<3>(const CellTree<3>&,
                                               const Partition&,
                                               const topo::Topology&);
extern template FfiHistograms ffi_histograms<2>(const CellTree<2>&,
                                                const Partition&);
extern template FfiHistograms ffi_histograms<3>(const CellTree<3>&,
                                                const Partition&);

}  // namespace sfc::fmm
