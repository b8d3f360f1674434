// contention.hpp — link-level congestion analysis (paper future-work i).
//
// The ACD metric is contention-unaware by design: it prices a
// communication by its path length only. This extension routes every
// message of the NFI/FFI communication sets over the mesh/torus links with
// deterministic dimension-order (X-then-Y) routing and reports per-link
// load statistics — the max-loaded link is the standard proxy for the
// serialization bottleneck the paper's Section VI caveats mention for the
// hypercube and quadtree results.
//
// The model deliberately stays simple (static routing, unit message size,
// no temporal schedule); it answers the paper's open question "does the
// SFC ordering that minimizes ACD also keep the worst link cool?".
#pragma once

#include <cstdint>
#include <vector>

#include "core/acd.hpp"
#include "topology/grid.hpp"

namespace sfc::core {

struct CongestionStats {
  std::uint64_t messages = 0;    ///< messages routed (zero-hop included)
  std::uint64_t hops = 0;        ///< total link traversals (== ACD * messages)
  std::uint64_t max_link_load = 0;
  std::uint64_t links_used = 0;  ///< directed links with nonzero load
  std::uint64_t total_links = 0; ///< directed links in the network

  /// Mean load over the links that carried traffic.
  double mean_used_load() const noexcept {
    return links_used == 0
               ? 0.0
               : static_cast<double>(hops) / static_cast<double>(links_used);
  }

  /// Max-to-mean imbalance; 0 when nothing was routed.
  double imbalance() const noexcept {
    const double mean = mean_used_load();
    return mean == 0.0 ? 0.0 : static_cast<double>(max_link_load) / mean;
  }
};

/// Per-link load accumulator for a 2-D mesh or torus with dimension-order
/// routing (X first, then Y; on the torus each axis takes its shorter way
/// around, breaking ties toward the positive direction).
class LinkLoadMap {
 public:
  /// `level`: the grid is 2^level x 2^level processors. `wrap`: torus.
  LinkLoadMap(unsigned level, bool wrap);

  /// Route `count` identical messages between processor grid coordinates
  /// in one link walk (loads are additive, so this is exactly `count`
  /// unit routes). The congestion models route the rank-pair histograms
  /// the ACD engines build (fmm::nfi_histogram / ffi_histograms), once per
  /// distinct pair.
  void route(const Point2& from, const Point2& to, std::uint64_t count = 1);

  CongestionStats stats() const;
  void reset();

  /// Load on the directed link leaving (x, y) in direction `dir`
  /// (0:+x, 1:-x, 2:+y, 3:-y). Exposed for tests.
  std::uint64_t link_load(std::uint32_t x, std::uint32_t y,
                          unsigned dir) const;

 private:
  unsigned level_;
  std::uint32_t side_;
  bool wrap_;
  std::uint64_t messages_ = 0;
  std::vector<std::uint64_t> load_;  // [ (y*side + x) * 4 + dir ]
};

/// Per-link loads of the near-field communication set of a prepared
/// instance on an SFC-ranked grid topology: every message routed in its
/// own direction, exactly as if each event were routed one at a time.
LinkLoadMap nfi_link_loads(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::GridTopologyBase<2>& net, bool wrap,
                           unsigned radius,
                           fmm::NeighborNorm norm =
                               fmm::NeighborNorm::kChebyshev);

/// Per-link loads of the far-field communication set (interpolation,
/// anterpolation and interaction messages).
LinkLoadMap ffi_link_loads(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::GridTopologyBase<2>& net, bool wrap);

/// nfi_link_loads(...).stats().
CongestionStats nfi_congestion(const AcdInstance<2>& instance,
                               const fmm::Partition& part,
                               const topo::GridTopologyBase<2>& net,
                               bool wrap, unsigned radius,
                               fmm::NeighborNorm norm =
                                   fmm::NeighborNorm::kChebyshev);

/// ffi_link_loads(...).stats().
CongestionStats ffi_congestion(const AcdInstance<2>& instance,
                               const fmm::Partition& part,
                               const topo::GridTopologyBase<2>& net,
                               bool wrap);

}  // namespace sfc::core
