#include "fmm/ffi_logtree.hpp"

#include <algorithm>

#include "core/rank_pair.hpp"
#include "fmm/cells.hpp"

namespace sfc::fmm {

template <int D>
std::vector<std::vector<topo::Rank>> quadrant_processor_lists(
    const std::vector<Point<D>>& particles, unsigned level,
    const Partition& part) {
  std::vector<std::vector<topo::Rank>> lists(1u << D);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const Point<D> quadrant = cell_at_level(particles[i], level, 1);
    lists[cell_key(quadrant)].push_back(part.proc_of(i));
  }
  for (auto& list : lists) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return lists;
}

template <int D>
core::CommTotals logtree_accumulation_totals(
    const std::vector<Point<D>>& particles, unsigned level,
    const Partition& part, const topo::Topology& net) {
  const auto lists = quadrant_processor_lists<D>(particles, level, part);
  constexpr std::size_t kArity = 1u << D;
  // Histogram the tree edges — one upward (interpolation) and one
  // downward (anterpolation) message each — then hand the histogram to
  // the topology's fold kernel. Same multiset of (pair, distance) events
  // as the old per-edge lookup, so the totals are bit-identical.
  core::RankPairAccumulator acc(part.processors());
  for (const auto& procs : lists) {
    for (std::size_t i = 1; i < procs.size(); ++i) {
      acc.add(procs[i], procs[(i - 1) / kArity], 2);
    }
  }
  return net.fold(acc.view());
}

template core::CommTotals logtree_accumulation_totals<2>(
    const std::vector<Point<2>>&, unsigned, const Partition&,
    const topo::Topology&);
template core::CommTotals logtree_accumulation_totals<3>(
    const std::vector<Point<3>>&, unsigned, const Partition&,
    const topo::Topology&);
template std::vector<std::vector<topo::Rank>> quadrant_processor_lists<2>(
    const std::vector<Point<2>>&, unsigned, const Partition&);
template std::vector<std::vector<topo::Rank>> quadrant_processor_lists<3>(
    const std::vector<Point<3>>&, unsigned, const Partition&);

}  // namespace sfc::fmm
