// enumerate.hpp — per-message enumeration of the NFI communication set.
//
// Every consumer that needs only how many messages travel between each
// pair of ranks — the ACD totals, hop histograms, link loads, remote
// fractions — reads the rank-pair histograms (fmm::nfi_histogram,
// fmm::ffi_histograms) instead. nfi_visit is for the extensions that need
// the individual messages: particle identities (weighted ACD) or message
// order (the network simulator). The tests pin it to nfi_totals: both
// must enumerate exactly the same communications.
#pragma once

#include <cstdint>
#include <vector>

#include "fmm/nfi.hpp"
#include "fmm/occupancy.hpp"

namespace sfc::fmm {

/// Invoke fn(i, j) for every ordered near-field pair: particle i receives
/// from particle j (both indices into the sorted particle vector).
template <int D, typename Fn>
void nfi_visit(const std::vector<Point<D>>& particles,
               const OccupancyGrid<D>& grid, unsigned radius,
               NeighborNorm norm, Fn&& fn) {
  const std::int64_t side = 1ll << grid.level();
  const std::int64_t r = radius;
  Point<D> q{};
  std::int64_t off[4] = {};  // D <= 4
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const Point<D>& x = particles[i];
    for (int d = 0; d < D; ++d) off[d] = -r;
    for (;;) {
      bool zero = true;
      bool in = true;
      std::int64_t l1 = 0;
      for (int d = 0; d < D; ++d) {
        if (off[d] != 0) zero = false;
        l1 += off[d] < 0 ? -off[d] : off[d];
        const std::int64_t v = static_cast<std::int64_t>(x[d]) + off[d];
        if (v < 0 || v >= side) {
          in = false;
          break;
        }
        q[d] = static_cast<std::uint32_t>(v);
      }
      const bool within = norm == NeighborNorm::kChebyshev || l1 <= r;
      if (!zero && in && within) {
        const std::int32_t j = grid.particle_at(q);
        if (j != OccupancyGrid<D>::kEmpty) {
          fn(i, static_cast<std::size_t>(j));
        }
      }
      int d = 0;
      while (d < D && off[d] == r) off[d++] = -r;
      if (d == D) break;
      ++off[d];
    }
  }
}

}  // namespace sfc::fmm
