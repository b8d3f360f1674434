#include "topology/topology.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace sfc::topo {

std::string_view fold_strategy_name(FoldStrategy s) noexcept {
  switch (s) {
    case FoldStrategy::kDense:
      return "dense";
    case FoldStrategy::kFactorized:
      return "factorized";
    case FoldStrategy::kStreamed:
      return "streamed";
  }
  return "unknown";
}

namespace {

/// One counter per strategy, resolved once: which kernel class served
/// the process's folds (replaces the old one-time stderr fallback
/// notice). Registry handles stay valid for the process lifetime.
void count_fold(FoldStrategy s) {
  static obs::Counter* const counters[3] = {
      &obs::Registry::instance().counter("topo.fold.dense"),
      &obs::Registry::instance().counter("topo.fold.factorized"),
      &obs::Registry::instance().counter("topo.fold.streamed"),
  };
  counters[static_cast<unsigned>(s)]->add();
}

}  // namespace

core::CommTotals Topology::fold(const PairCountsView& pairs) const {
  assert(pairs.procs() == size());
  count_fold(fold_strategy());
  return fold_pairs(pairs);
}

FoldStrategy Topology::fold_strategy() const noexcept {
  return distance_table_fits(size()) ? FoldStrategy::kDense
                                     : FoldStrategy::kStreamed;
}

core::CommTotals Topology::fold_pairs(const PairCountsView& pairs) const {
  return distance_table_fits(size()) ? fold_with_table(pairs)
                                     : fold_streaming(pairs);
}

core::CommTotals Topology::fold_with_table(const PairCountsView& pairs) const {
  const DistanceTable& t = dense_table();
  core::CommTotals totals;
  pairs.for_each([&totals, &t](Rank a, Rank b, std::uint64_t c) {
    totals.hops += c * t(a, b);
    totals.count += c;
  });
  return totals;
}

core::CommTotals Topology::fold_streaming(const PairCountsView& pairs) const {
  core::CommTotals totals;
  pairs.for_each([&totals, this](Rank a, Rank b, std::uint64_t c) {
    totals.hops += c * distance(a, b);
    totals.count += c;
  });
  return totals;
}

const DistanceTable& Topology::dense_table() const {
  std::call_once(table_once_, [this] {
    assert(distance_table_fits(size()));
    auto t = std::make_unique<DistanceTable>(size());
    fill_table(*t);
    table_ = std::move(t);
  });
  return *table_;
}

void Topology::fill_table(DistanceTable& t) const {
  const Rank p = size();
  for (Rank a = 0; a < p; ++a) {
    std::uint32_t* row = t.row(a);
    for (Rank b = 0; b < p; ++b) {
      row[b] = static_cast<std::uint32_t>(distance(a, b));
    }
  }
}

}  // namespace sfc::topo
