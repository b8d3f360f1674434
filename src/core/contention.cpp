#include "core/contention.hpp"

#include <algorithm>
#include <stdexcept>

#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"

namespace sfc::core {

LinkLoadMap::LinkLoadMap(unsigned level, bool wrap)
    : level_(level), side_(1u << level), wrap_(wrap) {
  if (2 * level > 26) {
    throw std::invalid_argument("link map too large");
  }
  load_.assign(static_cast<std::size_t>(side_) * side_ * 4, 0);
}

void LinkLoadMap::route(const Point2& from, const Point2& to,
                        std::uint64_t count) {
  if (count == 0) return;
  messages_ += count;
  auto traverse = [this, count](std::uint32_t x, std::uint32_t y,
                                unsigned dir) {
    load_[(static_cast<std::size_t>(y) * side_ + x) * 4 + dir] += count;
  };
  std::uint32_t x = from[0];
  std::uint32_t y = from[1];

  // X leg. On the torus pick the shorter wrap, ties toward +x.
  while (x != to[0]) {
    const std::uint32_t fwd = (to[0] + side_ - x) % side_;  // steps going +x
    bool step_pos;
    if (!wrap_) {
      step_pos = to[0] > x;
    } else {
      step_pos = fwd <= side_ - fwd;
    }
    if (step_pos) {
      traverse(x, y, 0);
      x = wrap_ ? (x + 1) % side_ : x + 1;
    } else {
      traverse(x, y, 1);
      x = wrap_ ? (x + side_ - 1) % side_ : x - 1;
    }
  }
  // Y leg.
  while (y != to[1]) {
    const std::uint32_t fwd = (to[1] + side_ - y) % side_;
    bool step_pos;
    if (!wrap_) {
      step_pos = to[1] > y;
    } else {
      step_pos = fwd <= side_ - fwd;
    }
    if (step_pos) {
      traverse(x, y, 2);
      y = wrap_ ? (y + 1) % side_ : y + 1;
    } else {
      traverse(x, y, 3);
      y = wrap_ ? (y + side_ - 1) % side_ : y - 1;
    }
  }
}

CongestionStats LinkLoadMap::stats() const {
  CongestionStats s;
  s.messages = messages_;
  // Directed links that physically exist: 4 per node on the torus; the
  // mesh loses the boundary-crossing ones.
  if (wrap_ && side_ > 1) {
    s.total_links = static_cast<std::uint64_t>(side_) * side_ * 4;
  } else {
    s.total_links =
        2ull * 2ull * side_ * (side_ - 1);  // 2 dirs x 2 signs per edge
  }
  for (const std::uint64_t l : load_) {
    if (l == 0) continue;
    s.hops += l;
    ++s.links_used;
    s.max_link_load = std::max(s.max_link_load, l);
  }
  return s;
}

void LinkLoadMap::reset() {
  messages_ = 0;
  std::fill(load_.begin(), load_.end(), 0);
}

std::uint64_t LinkLoadMap::link_load(std::uint32_t x, std::uint32_t y,
                                     unsigned dir) const {
  return load_[(static_cast<std::size_t>(y) * side_ + x) * 4 + dir];
}

namespace {

/// Walk each distinct pair's path once with its multiplicity: O(pairs ·
/// hops) link updates instead of O(events · hops). Loads are additive, so
/// the loads are identical to routing every event of `pairs` on its own.
void route_pairs(LinkLoadMap& map, const RankPairAccumulator& pairs,
                 const topo::GridTopologyBase<2>& net, bool both_ways) {
  pairs.for_each([&](topo::Rank from, topo::Rank to, std::uint64_t count) {
    map.route(net.coordinate(from), net.coordinate(to), count);
    if (both_ways) map.route(net.coordinate(to), net.coordinate(from), count);
  });
}

}  // namespace

LinkLoadMap nfi_link_loads(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::GridTopologyBase<2>& net, bool wrap,
                           unsigned radius, fmm::NeighborNorm norm) {
  const RankPairAccumulator counts = fmm::nfi_histogram<2>(
      instance.particles(), instance.grid(), part, radius, norm);
  // The histogram is exact for hop sums but not for directions: the
  // dense-grid kernel records each particle pair as a count of 2 in one
  // spatial orientation. The near-field set itself is symmetric (j is in
  // i's ball iff i is in j's), so a→b carries half of c(a,b) + c(b,a)
  // messages, and b→a the other half. The split matters here because
  // dimension-order routing sends a→b and b→a over different links.
  RankPairAccumulator both_ways(counts.procs());
  counts.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
    both_ways.add(a, b, count);
    both_ways.add(b, a, count);
  });
  LinkLoadMap map(net.level(), wrap);
  both_ways.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
    map.route(net.coordinate(a), net.coordinate(b), count / 2);
  });
  return map;
}

LinkLoadMap ffi_link_loads(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::GridTopologyBase<2>& net, bool wrap) {
  LinkLoadMap map(net.level(), wrap);
  const fmm::FfiHistograms pairs =
      fmm::ffi_histograms<2>(instance.tree(), part);
  // Interpolation pairs travel child -> parent and, mirrored by
  // anterpolation, parent -> child.
  route_pairs(map, pairs.interpolation, net, true);
  route_pairs(map, pairs.interaction, net, false);
  return map;
}

CongestionStats nfi_congestion(const AcdInstance<2>& instance,
                               const fmm::Partition& part,
                               const topo::GridTopologyBase<2>& net,
                               bool wrap, unsigned radius,
                               fmm::NeighborNorm norm) {
  return nfi_link_loads(instance, part, net, wrap, radius, norm).stats();
}

CongestionStats ffi_congestion(const AcdInstance<2>& instance,
                               const fmm::Partition& part,
                               const topo::GridTopologyBase<2>& net,
                               bool wrap) {
  return ffi_link_loads(instance, part, net, wrap).stats();
}

}  // namespace sfc::core
