#include "fmm/ffi.hpp"

#include <algorithm>

#include "fmm/cells.hpp"
#include "obs/trace.hpp"
#include "util/radix_sort.hpp"

namespace sfc::fmm {

template <int D>
CellTree<D>::CellTree(const std::vector<Point<D>>& particles, unsigned level)
    : finest_(level), levels_(level + 1) {
  // Finest level: one entry per occupied cell, keyed by Morton code.
  auto& finest = levels_[level];
  finest.reserve(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    finest.push_back(
        Cell{cell_key(particles[i]), static_cast<std::uint32_t>(i)});
  }
  util::radix_sort_by_key(finest, [](const Cell& c) { return c.key; });
  // Particles occupy distinct cells, but be robust: merge duplicates by
  // minimum particle index (the list is key-sorted, not index-sorted).
  auto dedup = [](std::vector<Cell>& cells) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < cells.size(); ++r) {
      if (w > 0 && cells[w - 1].key == cells[r].key) {
        cells[w - 1].min_particle =
            std::min(cells[w - 1].min_particle, cells[r].min_particle);
      } else {
        cells[w++] = cells[r];
      }
    }
    cells.resize(w);
  };
  dedup(finest);

  // Coarsen: the parent key is key >> D, and shifting preserves the sorted
  // order, so each coarser level is one grouping pass.
  for (unsigned l = level; l > 0; --l) {
    const auto& fine = levels_[l];
    auto& coarse = levels_[l - 1];
    coarse.reserve(fine.size() / 2 + 1);
    for (const Cell& c : fine) {
      const std::uint64_t pk = parent_key<D>(c.key);
      if (!coarse.empty() && coarse.back().key == pk) {
        coarse.back().min_particle =
            std::min(coarse.back().min_particle, c.min_particle);
      } else {
        coarse.push_back(Cell{pk, c.min_particle});
      }
    }
  }

  // Dense lookup tables (find() fast path) for the levels that fit the
  // budget: one int32 per possible cell, up to 2^24 cells per level.
  dense_.resize(levels_.size());
  for (unsigned l = 0; l <= level; ++l) {
    const unsigned bits = static_cast<unsigned>(D) * l;
    if (bits > 24) break;
    dense_[l].assign(1ull << bits, -1);
    const auto& cells = levels_[l];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      dense_[l][cells[i].key] = static_cast<std::int32_t>(i);
    }
  }
}

template <int D>
std::int64_t CellTree<D>::find_sparse(unsigned level,
                                      std::uint64_t key) const noexcept {
  const auto& cells = levels_[level];
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const Cell& c, std::uint64_t k) { return c.key < k; });
  if (it == cells.end() || it->key != key) return -1;
  return it - cells.begin();
}

template <int D>
std::size_t CellTree<D>::total_cells() const noexcept {
  std::size_t n = 0;
  for (const auto& l : levels_) n += l.size();
  return n;
}

namespace {

/// Interpolation hops of level `l` (l >= 1): each cell owner sends to
/// its parent's owner. Reference path — one virtual distance() per edge.
template <int D>
core::CommTotals interp_level(const CellTree<D>& tree, const Partition& part,
                              const topo::Topology& net, unsigned l) {
  core::CommTotals totals;
  for (const auto& cell : tree.cells(l)) {
    const auto idx = tree.find(l - 1, parent_key<D>(cell.key));
    // The parent of an occupied cell is always occupied.
    const auto& parent = tree.cells(l - 1)[static_cast<std::size_t>(idx)];
    totals.hops += net.distance(part.proc_of(cell.min_particle),
                                part.proc_of(parent.min_particle));
    ++totals.count;
  }
  return totals;
}

/// Interaction-list hops of level `l` (l >= 2). Reference path.
template <int D>
core::CommTotals il_level(const CellTree<D>& tree, const Partition& part,
                          const topo::Topology& net, unsigned l) {
  core::CommTotals totals;
  std::vector<Point<D>> il;
  il.reserve(64);
  for (const auto& cell : tree.cells(l)) {
    const Point<D> c = morton_point<D>(cell.key);
    const topo::Rank owner = part.proc_of(cell.min_particle);
    interaction_list(c, l, il);
    for (const Point<D>& d : il) {
      const auto idx = tree.find(l, cell_key(d));
      if (idx < 0) continue;  // unoccupied cells do not communicate
      const auto& dc = tree.cells(l)[static_cast<std::size_t>(idx)];
      totals.hops += net.distance(part.proc_of(dc.min_particle), owner);
      ++totals.count;
    }
  }
  return totals;
}

/// Push the owner of every occupied cell in the interaction list of
/// `cell` (level `l` >= 2). The candidate cells stream straight from the
/// offset odometer into the key lookup — no materialized interaction
/// list, no per-cell allocation.
template <int D, typename Push>
void interaction_owners(const CellTree<D>& tree, const topo::Rank* own,
                        unsigned l, std::uint64_t key, Push&& push) {
  // Child-digit decode: Morton digit d's child of pn sits at
  // 2·pn + (bit k of d along axis k), and its key is (key(pn) << D) | d —
  // so the inner loop pays zero per-candidate interleaves.
  const std::int64_t side = 1ll << (l - 1);
  const Point<D> c = morton_point<D>(key);
  const Point<D> par = parent_cell(c);
  // Odometer over the parent's neighbors. Two prunes the reference path
  // skips, neither of which changes the event multiset: the zero offset
  // (the cell's own siblings, all Chebyshev-adjacent) and the children
  // of *unoccupied* parent neighbors — one parent lookup in place of 2^D
  // guaranteed-miss child lookups.
  std::int64_t off[4];  // D <= 4 (static_assert in Point)
  for (int k = 0; k < D; ++k) off[k] = -1;
  for (;;) {
    bool in = true;
    bool zero = true;
    Point<D> pn{};
    for (int k = 0; k < D; ++k) {
      const std::int64_t v = static_cast<std::int64_t>(par[k]) + off[k];
      if (v < 0 || v >= side) {
        in = false;
        break;
      }
      if (off[k] != 0) zero = false;
      pn[k] = static_cast<std::uint32_t>(v);
    }
    if (in && !zero) {
      const std::uint64_t pn_key = cell_key(pn);
      if (tree.find(l - 1, pn_key) >= 0) {
        for (std::uint32_t d = 0; d < (1u << D); ++d) {
          Point<D> child{};
          for (int k = 0; k < D; ++k) child[k] = (pn[k] << 1) | ((d >> k) & 1u);
          if (chebyshev(child, c) <= 1) continue;
          const auto idx = tree.find(l, (pn_key << D) | d);
          if (idx < 0) continue;  // unoccupied cells do not communicate
          push(own[tree.cells(l)[static_cast<std::size_t>(idx)].min_particle]);
        }
      }
    }
    int k = 0;
    while (k < D && off[k] == 1) off[k++] = -1;
    if (k == D) break;
    ++off[k];
  }
}

}  // namespace

template <int D>
FfiTotals ffi_totals(const CellTree<D>& tree, const Partition& part,
                     const topo::Topology& net) {
  // One histogram per family accumulated across every level, one fold
  // per family: the fold and accumulator-construction costs are O(pairs)
  // per evaluation instead of O(pairs · levels).
  return ffi_fold(ffi_histograms<D>(tree, part), net);
}

template <int D>
FfiHistograms ffi_histograms(const CellTree<D>& tree, const Partition& part) {
  const std::vector<topo::Rank> owners = part.owner_table();
  const topo::Rank* own = owners.data();
  const topo::Rank procs = part.processors();
  const unsigned finest = tree.finest_level();
  // The items of both families: the cells of levels >= 1, level by level
  // in key order; level l's cells start at item first[l].
  std::vector<std::size_t> first(finest + 2, 0);
  for (unsigned l = 1; l <= finest; ++l) {
    first[l + 1] = first[l] + tree.cells(l).size();
  }
  const std::size_t items = first[finest + 1];
  // Item i sits at level_of(i), index i - first[level_of(i)].
  const auto level_of = [&first](std::size_t i) {
    return static_cast<unsigned>(
        std::upper_bound(first.begin() + 1, first.end(), i) - first.begin() -
        1);
  };
  std::vector<topo::Rank> src(items);
  for (unsigned l = 1; l <= finest; ++l) {
    std::size_t i = first[l];
    for (const auto& cell : tree.cells(l)) src[i++] = own[cell.min_particle];
  }
  FfiHistograms h(procs);
  {
    // Interpolation: each cell sends to its parent's owner. (The parent
    // of an occupied cell is always occupied.)
    const obs::Span span("ffi/interpolation");
    h.interpolation = core::build_rank_pairs(
        procs, src.data(), items, [&](std::size_t i, auto&& push) {
          const unsigned l = level_of(i);
          const auto parent = tree.find(
              l - 1, parent_key<D>(tree.cells(l)[i - first[l]].key));
          push(own[tree.cells(l - 1)[static_cast<std::size_t>(parent)]
                       .min_particle]);
        });
  }
  if (finest >= 2) {
    // Interaction: cell c receives from each occupied d in IL(c), the
    // event (owner(d), owner(c)). IL membership is symmetric — d is in
    // IL(c) exactly when c is in IL(d) — so the same multiset is
    // (owner(c), owner(d)) over the same pairs, and each cell's row is
    // keyed by its own owner.
    const obs::Span span("ffi/interaction");
    const std::size_t base = first[2];
    h.interaction = core::build_rank_pairs(
        procs, src.data() + base, items - base,
        [&](std::size_t i, auto&& push) {
          const unsigned l = level_of(base + i);
          interaction_owners<D>(tree, own, l,
                                tree.cells(l)[base + i - first[l]].key, push);
        });
  }
  return h;
}

FfiTotals ffi_fold(const FfiHistograms& hist, const topo::Topology& net) {
  FfiTotals totals;
  totals.interpolation = net.fold(hist.interpolation.view());
  totals.anterpolation = totals.interpolation;
  totals.interaction = net.fold(hist.interaction.view());
  return totals;
}

template <int D>
FfiTotals ffi_totals_direct(const CellTree<D>& tree, const Partition& part,
                            const topo::Topology& net) {
  FfiTotals totals;
  for (unsigned l = 1; l <= tree.finest_level(); ++l) {
    totals.interpolation += interp_level<D>(tree, part, net, l);
  }
  totals.anterpolation = totals.interpolation;
  for (unsigned l = 2; l <= tree.finest_level(); ++l) {
    totals.interaction += il_level<D>(tree, part, net, l);
  }
  return totals;
}

template class CellTree<2>;
template class CellTree<3>;
template FfiTotals ffi_totals<2>(const CellTree<2>&, const Partition&,
                                 const topo::Topology&);
template FfiTotals ffi_totals<3>(const CellTree<3>&, const Partition&,
                                 const topo::Topology&);
template FfiTotals ffi_totals_direct<2>(const CellTree<2>&, const Partition&,
                                        const topo::Topology&);
template FfiTotals ffi_totals_direct<3>(const CellTree<3>&, const Partition&,
                                        const topo::Topology&);
template FfiHistograms ffi_histograms<2>(const CellTree<2>&, const Partition&);
template FfiHistograms ffi_histograms<3>(const CellTree<3>&, const Partition&);

}  // namespace sfc::fmm
