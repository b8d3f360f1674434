#include "core/dynamic_acd.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "distribution/distribution.hpp"
#include "fmm/nfi_window.hpp"
#include "util/rng.hpp"

namespace sfc::core {

template <int D>
DynamicAcd<D>::DynamicAcd(std::vector<Point<D>> particles, unsigned level,
                          const Curve<D>& curve, topo::Rank procs,
                          Options opts)
    : curve_(&curve),
      level_(level),
      procs_(procs),
      opts_(opts),
      positions_(sort_by_curve<D>(std::move(particles), level, curve)),
      part_(positions_.size(), procs),
      owners_(part_.owner_table()),
      grid_(positions_, level),
      tree_(positions_, level),
      nfi_acc_(procs),
      ffi_(procs),
      nfi_deltas_(procs),
      ffi_interp_deltas_(procs),
      ffi_inter_deltas_(procs) {
  build();
}

template <int D>
void DynamicAcd<D>::build() {
  // NFI: the *directed* event multiset — one event per ordered window
  // pair, recorded from the source side. The static fast path compresses
  // the mirror event into a count-2 entry on one orientation; the
  // incremental algebra instead needs every per-pair count to stay
  // individually consistent under retraction, and by hop-distance
  // symmetry both representations fold to identical totals.
  const std::int32_t* cells = grid_.dense_cells();
  const std::int64_t r = opts_.radius;
  const bool cheb = opts_.norm == fmm::NeighborNorm::kChebyshev;
  nfi_acc_ = build_rank_pairs(
      procs_, owners_.data(), positions_.size(),
      [&](std::size_t i, auto&& push) {
        fmm::visit_window_neighbors<D>(
            grid_, cells, positions_[i], r, cheb,
            [&](std::size_t j) { push(owners_[j]); });
      });

  // FFI: ffi_histograms already records the true directed multiset
  // (every interpolation and interaction-list event once, from its
  // source side), so the static builder seeds the dynamic state as-is.
  ffi_ = fmm::ffi_histograms<D>(fmm::CellTree<D>(positions_, level_), part_);

  // Freeze each chunk's curve-key interval for displacement tracking.
  const std::vector<std::uint64_t> keys =
      indices_of<D>(*curve_, positions_, level_);
  chunk_keys_.assign(procs_, {1, 0});  // empty interval
  for (topo::Rank c = 0; c < procs_; ++c) {
    const std::size_t lo = part_.chunk_begin(c);
    const std::size_t hi = part_.chunk_begin(c + 1);
    if (lo < hi) chunk_keys_[c] = {keys[lo], keys[hi - 1]};
  }
  displaced_.assign(positions_.size(), 0);
  displaced_count_ = 0;
}

template <int D>
void DynamicAcd<D>::rebuild() {
  positions_ = sort_by_curve<D>(std::move(positions_), level_, *curve_);
  grid_ = fmm::OccupancyGrid<D>(positions_, level_);
  tree_ = fmm::DynamicCellTree<D>(positions_, level_);
  ++repartitions_;
  // The partition and owner table depend only on (n, p) — unchanged.
  build();
}

template <int D>
void DynamicAcd<D>::nfi_phase(const std::vector<ParticleMove<D>>& movers,
                              bool retract) {
  const std::int32_t* cells = grid_.dense_cells();
  const std::int64_t r = opts_.radius;
  const bool cheb = opts_.norm == fmm::NeighborNorm::kChebyshev;
  for (std::size_t k = 0; k < movers.size(); ++k) {
    const std::uint32_t m = movers[k].index;
    const topo::Rank sm = owners_[m];
    const bool faulted = retract && opts_.fault_stale_subtraction && k == 0;
    // Both phases scan the window around the mover's *current* cell:
    // positions_ holds the old cell during retract and the new one
    // during assert. Each mover handles its own outgoing events; the
    // incoming mirror is handled by the stationary neighbor's side here,
    // or by the other mover's own outgoing scan when both ends move —
    // so every directed event is touched exactly once per phase.
    fmm::visit_window_neighbors<D>(
        grid_, cells, positions_[m], r, cheb, [&](std::size_t j) {
          const topo::Rank sj = owners_[j];
          if (retract) {
            if (!faulted) nfi_deltas_.sub(sm, sj);
            if (!mover_flag_[j]) nfi_deltas_.sub(sj, sm);
          } else {
            nfi_deltas_.add(sm, sj);
            if (!mover_flag_[j]) nfi_deltas_.add(sj, sm);
          }
        });
  }
}

template <int D>
std::vector<std::unordered_set<std::uint64_t>> DynamicAcd<D>::touched_cells(
    const std::vector<ParticleMove<D>>& movers) const {
  // The cells whose occupant set — and therefore owner (the min particle
  // index over unchanged indices) — can change: each mover's old and new
  // ancestors, at every level *below the point where the two chains
  // merge*. Once old and new share an ancestor, every coarser cell keeps
  // its occupant set verbatim, so its events are identical pre/post and
  // retract/assert would only cancel — a one-cell drift step touches
  // O(1) cells instead of one per level, which is most of the delta
  // path's speed.
  std::vector<std::unordered_set<std::uint64_t>> sets(level_ + 1);
  for (const ParticleMove<D>& mv : movers) {
    std::uint64_t a = fmm::cell_key(positions_[mv.index]);
    std::uint64_t b = fmm::cell_key(mv.to);
    for (unsigned l = level_ + 1; l-- > 0 && a != b;) {
      sets[l].insert(a);
      sets[l].insert(b);
      a >>= D;
      b >>= D;
    }
  }
  return sets;
}

template <int D>
std::uint32_t DynamicAcd<D>::pre_owner(unsigned level,
                                       std::uint64_t key) const {
  // Only meaningful for touched cells (the snapshot writes nothing
  // else); untouched cells keep their owner, so callers read the tree.
  const std::vector<std::uint32_t>& arr = pre_owner_dense_[level];
  if (!arr.empty()) return arr[key];
  return pre_owner_map_[level].at(key);
}

template <int D>
void DynamicAcd<D>::ffi_snapshot(
    const std::vector<std::unordered_set<std::uint64_t>>& touched) {
  // Capture every touched cell's pre-move owner so the FFI delta can be
  // emitted by a single walk after the update. O(touched cells) tree
  // queries replace a full pre-state enumeration of the touched events.
  if (pre_owner_dense_.empty()) {
    pre_owner_dense_.resize(level_ + 1);
    pre_owner_map_.resize(level_ + 1);
    for (unsigned l = 0; l <= level_; ++l) {
      if (D * l <= fmm::DynamicCellTree<D>::kDenseOwnerCap) {
        // Values are gated by touched_bits_, so stale entries from
        // earlier batches are never read — no per-batch clearing.
        pre_owner_dense_[l].resize(std::size_t{1} << (D * l));
      }
    }
  }
  for (unsigned l = 0; l <= level_; ++l) {
    std::vector<std::uint32_t>& arr = pre_owner_dense_[l];
    if (arr.empty()) {
      pre_owner_map_[l].clear();
      for (const std::uint64_t key : touched[l]) {
        pre_owner_map_[l].emplace(key, tree_.owner_or_none(l, key));
      }
    } else {
      for (const std::uint64_t key : touched[l]) {
        arr[key] = tree_.owner_or_none(l, key);
      }
    }
  }
}

template <int D>
void DynamicAcd<D>::ffi_diff(
    const std::vector<std::unordered_set<std::uint64_t>>& touched) {
  PairDeltas& interp = ffi_interp_deltas_;
  PairDeltas& inter = ffi_inter_deltas_;
  // One post-update walk over the touched sets emits each affected FFI
  // event as a retract/assert pair: subtract it with the pre-move owners
  // (ffi_snapshot for touched cells, the live tree for untouched ones —
  // their occupant sets are unchanged) and re-add it with the post-move
  // owners. Responsibility is keyed to *changed* cells (pre owner !=
  // post owner):
  //   * a changed cell emits its own interpolation send, the sends of
  //     its unchanged children, and its interaction pairs;
  //   * an unchanged cell — touched or not — emits nothing: every event
  //     it participates in either has no changed endpoint (identical
  //     pre/post, the pair would only cancel) or is emitted by the
  //     changed partner;
  //   * a changed-changed interaction pair is emitted by the smaller key.
  constexpr std::uint32_t kNone = fmm::DynamicCellTree<D>::kNoParticle;
  const unsigned finest = level_;
  for (unsigned l = 0; l <= finest; ++l) {
    for (const std::uint64_t key : touched[l]) {
      const std::uint32_t pre = pre_owner(l, key);
      const std::uint32_t post = tree_.owner_or_none(l, key);
      if (pre == post) continue;  // unchanged: partners emit any diffs
      if (l >= 1) {
        // The parent is occupied whenever the child is, in the matching
        // state; an untouched parent keeps its owner across the update.
        const std::uint64_t pk = key >> D;
        const bool pt = is_touched(touched, l - 1, pk);
        if (pre != kNone) {
          const std::uint32_t pp =
              pt ? pre_owner(l - 1, pk) : tree_.owner_particle(l - 1, pk);
          interp.sub(owners_[pre], owners_[pp]);
        }
        if (post != kNone) {
          interp.add(owners_[post], owners_[tree_.owner_particle(l - 1, pk)]);
        }
      }
      if (l < finest) {
        for (std::uint64_t c = 0; c < (std::uint64_t{1} << D); ++c) {
          const std::uint64_t ck = (key << D) | c;
          const std::uint32_t oc = tree_.owner_or_none(l + 1, ck);
          if (is_touched(touched, l + 1, ck)) {
            // A changed child emits its own send (it sees this cell's
            // pre/post owners); an unchanged one is emitted here.
            if (pre_owner(l + 1, ck) != oc) continue;
          }
          if (oc == kNone) continue;
          if (pre != kNone) interp.sub(owners_[oc], owners_[pre]);
          if (post != kNone) interp.add(owners_[oc], owners_[post]);
        }
      }
      if (l >= 2) {
        const Point<D> cell = morton_point<D>(key);
        fmm::for_each_interaction_keys<D>(cell, l, [&](std::uint64_t qk) {
          const std::uint32_t q_post = tree_.owner_or_none(l, qk);
          std::uint32_t q_pre = q_post;
          if (is_touched(touched, l, qk)) {
            q_pre = pre_owner(l, qk);
            // A changed partner with the smaller key owns the pair.
            if (q_pre != q_post && qk < key) return;
          }
          if (pre != kNone && q_pre != kNone) {
            inter.sub(owners_[q_pre], owners_[pre]);
            inter.sub(owners_[pre], owners_[q_pre]);
          }
          if (post != kNone && q_post != kNone) {
            inter.add(owners_[q_post], owners_[post]);
            inter.add(owners_[post], owners_[q_post]);
          }
        });
      }
    }
  }
}

template <int D>
void DynamicAcd<D>::track_displacement(std::uint32_t index,
                                       const Point<D>& to) {
  const std::uint64_t key = curve_->index(to, level_);
  const auto& [lo, hi] = chunk_keys_[owners_[index]];
  const bool now = key < lo || key > hi;
  if (now == static_cast<bool>(displaced_[index])) return;
  displaced_[index] = now ? 1 : 0;
  if (now) {
    ++displaced_count_;
  } else {
    --displaced_count_;
  }
}

template <int D>
void DynamicAcd<D>::move_particles(std::span<const ParticleMove<D>> moves) {
  const std::size_t n = positions_.size();

  // Validate and keep the effective movers (position actually changes).
  std::vector<ParticleMove<D>> movers;
  movers.reserve(moves.size());
  std::unordered_set<std::uint32_t> indices;
  indices.reserve(moves.size() * 2);
  for (const ParticleMove<D>& mv : moves) {
    if (mv.index >= n) {
      throw std::invalid_argument("move_particles: index out of range");
    }
    if (!in_grid(mv.to, level_)) {
      throw std::invalid_argument("move_particles: target off the grid");
    }
    if (!indices.insert(mv.index).second) {
      throw std::invalid_argument("move_particles: duplicate particle index");
    }
    if (mv.to == positions_[mv.index]) continue;
    movers.push_back(mv);
  }
  if (movers.empty()) return;
  // Final cells must be distinct: targets pairwise distinct, and a target
  // occupied in the pre-state must be vacated by this very batch — by an
  // *effective* mover; a no-op entry stays put and keeps its cell.
  {
    std::unordered_set<std::uint32_t> vacating;
    vacating.reserve(movers.size() * 2);
    for (const ParticleMove<D>& mv : movers) vacating.insert(mv.index);
    std::unordered_set<std::uint64_t> dests;
    dests.reserve(movers.size() * 2);
    for (const ParticleMove<D>& mv : movers) {
      if (!dests.insert(pack(mv.to, level_)).second) {
        throw std::invalid_argument("move_particles: duplicate target cell");
      }
      const std::int32_t occ = grid_.particle_at(mv.to);
      if (occ != fmm::OccupancyGrid<D>::kEmpty &&
          vacating.count(static_cast<std::uint32_t>(occ)) == 0) {
        throw std::invalid_argument(
            "move_particles: target cell occupied by a stationary particle");
      }
    }
  }

  if (mover_flag_.size() != n) mover_flag_.assign(n, 0);
  for (const ParticleMove<D>& mv : movers) mover_flag_[mv.index] = 1;

  // Retract against the pre-move state.
  nfi_phase(movers, /*retract=*/true);
  const auto touched = touched_cells(movers);
  if (touched_bits_.empty()) {
    touched_bits_.resize(level_ + 1);
    for (unsigned l = 0; l <= level_; ++l) {
      if (D * l <= fmm::DynamicCellTree<D>::kDenseBitsCap) {
        touched_bits_[l].assign((std::size_t{1} << (D * l)) / 64 + 1, 0);
      }
    }
  }
  for (unsigned l = 0; l <= level_; ++l) {
    if (touched_bits_[l].empty()) continue;
    for (const std::uint64_t key : touched[l]) {
      touched_bits_[l][key >> 6] |= std::uint64_t{1} << (key & 63);
    }
  }
  ffi_snapshot(touched);

  // Apply the batch. The grid is slot-exclusive, so all movers vacate
  // before any fills; the cell tree's per-level records are multisets
  // whose mutations commute, so each mover relocates in one pass that
  // stops at its own ancestor-merge point.
  std::vector<Point<D>> old_pos(movers.size());
  for (std::size_t k = 0; k < movers.size(); ++k) {
    old_pos[k] = positions_[movers[k].index];
    positions_[movers[k].index] = movers[k].to;
  }
  for (std::size_t k = 0; k < movers.size(); ++k) grid_.erase(old_pos[k]);
  for (const ParticleMove<D>& mv : movers) {
    grid_.insert(mv.to, static_cast<std::int32_t>(mv.index));
  }
  for (std::size_t k = 0; k < movers.size(); ++k) {
    tree_.move_particle(movers[k].index, old_pos[k], movers[k].to);
  }
  for (const ParticleMove<D>& mv : movers) {
    track_displacement(mv.index, mv.to);
  }
  moves_applied_ += movers.size();

  // Assert against the post-move state.
  nfi_phase(movers, /*retract=*/false);
  ffi_diff(touched);

  // Net the batch's deltas into the live histograms. Folds between
  // batches must see fully-applied state, so the scratches never persist
  // past here.
  nfi_deltas_.flush_into(nfi_acc_);
  ffi_interp_deltas_.flush_into(ffi_.interpolation);
  ffi_inter_deltas_.flush_into(ffi_.interaction);

  for (const ParticleMove<D>& mv : movers) mover_flag_[mv.index] = 0;
  for (unsigned l = 0; l <= level_; ++l) {
    if (touched_bits_[l].empty()) continue;
    for (const std::uint64_t key : touched[l]) {
      touched_bits_[l][key >> 6] &= ~(std::uint64_t{1} << (key & 63));
    }
  }

  if (static_cast<double>(displaced_count_) >
      opts_.repartition_threshold * static_cast<double>(n)) {
    rebuild();
  }
}

template <int D>
std::vector<ParticleMove<D>> drift_moves(const std::vector<Point<D>>& positions,
                                         unsigned level, std::uint64_t seed,
                                         std::uint64_t step, double fraction) {
  std::vector<ParticleMove<D>> moves;
  const std::size_t n = positions.size();
  if (n == 0) return moves;

  if (fraction >= 1.0) {
    // Exactly dist::drift_particles, expressed as a move batch.
    std::vector<Point<D>> drifted = positions;
    dist::drift_particles<D>(drifted, level, seed, step);
    for (std::size_t i = 0; i < n; ++i) {
      if (drifted[i] != positions[i]) {
        moves.push_back({static_cast<std::uint32_t>(i), drifted[i]});
      }
    }
    return moves;
  }

  // Same step/rejection dynamics, restricted to ⌈fraction·n⌉ evenly
  // spread particles. Moves are validated against an evolving occupancy
  // set, so the batch's final cells are distinct by construction.
  const std::size_t want = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  util::Xoshiro256pp rng(util::substream_seed(seed, 0x5EED0000ull + step));
  std::unordered_set<std::uint64_t> occupied;
  occupied.reserve(n * 2);
  for (const Point<D>& p : positions) occupied.insert(pack(p, level));
  const std::int64_t side = 1ll << level;
  for (std::size_t k = 0; k < want; ++k) {
    const std::size_t i = k * n / want;  // strictly increasing for want <= n
    const Point<D>& p = positions[i];
    Point<D> candidate = p;
    bool zero = true;
    for (int d = 0; d < D; ++d) {
      const auto o = static_cast<std::int64_t>(util::bounded_u64(rng, 3)) - 1;
      const std::int64_t v = static_cast<std::int64_t>(p[d]) + o;
      if (o != 0) zero = false;
      if (v < 0 || v >= side) {
        zero = true;  // off-grid: rejected
        break;
      }
      candidate[d] = static_cast<std::uint32_t>(v);
    }
    if (zero) continue;
    if (!occupied.insert(pack(candidate, level)).second) continue;
    occupied.erase(pack(p, level));
    moves.push_back({static_cast<std::uint32_t>(i), candidate});
  }
  return moves;
}

template class DynamicAcd<2>;
template class DynamicAcd<3>;
template std::vector<ParticleMove<2>> drift_moves<2>(
    const std::vector<Point<2>>&, unsigned, std::uint64_t, std::uint64_t,
    double);
template std::vector<ParticleMove<3>> drift_moves<3>(
    const std::vector<Point<3>>&, unsigned, std::uint64_t, std::uint64_t,
    double);

}  // namespace sfc::core
