#include "core/histogram.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"

namespace sfc::core {

HopHistogram::HopHistogram(std::uint64_t max_distance)
    : bins_(max_distance + 1, 0) {}

void HopHistogram::add(std::uint64_t distance, std::uint64_t count) {
  if (count == 0) return;
  if (distance >= bins_.size()) bins_.resize(distance + 1, 0);
  bins_[distance] += count;
  total_ += count;
  hops_ += distance * count;
  max_seen_ = std::max(max_seen_, distance);
}

double HopHistogram::mean() const noexcept {
  return total_ == 0 ? 0.0
                     : static_cast<double>(hops_) /
                           static_cast<double>(total_);
}

std::uint64_t HopHistogram::percentile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile must be in [0, 1]");
  }
  if (total_ == 0) return 0;
  const double target = q * static_cast<double>(total_);
  std::uint64_t cumulative = 0;
  for (std::uint64_t d = 0; d < bins_.size(); ++d) {
    cumulative += bins_[d];
    if (static_cast<double>(cumulative) >= target) return d;
  }
  return max_seen_;
}

double HopHistogram::local_fraction() const noexcept {
  return total_ == 0 ? 0.0
                     : static_cast<double>(bins_[0]) /
                           static_cast<double>(total_);
}

std::string HopHistogram::ascii(unsigned width) const {
  std::uint64_t peak = 0;
  for (const auto b : bins_) peak = std::max(peak, b);
  std::ostringstream os;
  if (peak == 0) return "(empty)\n";
  for (std::uint64_t d = 0; d <= max_seen_; ++d) {
    if (bins_[d] == 0 && d != 0) continue;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(bins_[d]) / static_cast<double>(peak) * width);
    os << (d < 10 ? "  " : d < 100 ? " " : "") << d << " | "
       << std::string(bar, '#') << ' ' << bins_[d] << '\n';
  }
  return os.str();
}

namespace {

/// Add every distinct pair of `pairs` to `hist`, `times` times over, at
/// its hop distance: one distance() call per pair, not per event.
void add_pairs(HopHistogram& hist, const RankPairAccumulator& pairs,
               const topo::Topology& net, std::uint64_t times) {
  pairs.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
    hist.add(net.distance(a, b), count * times);
  });
}

}  // namespace

HopHistogram nfi_histogram(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::Topology& net, unsigned radius,
                           fmm::NeighborNorm norm) {
  HopHistogram hist(net.diameter());
  add_pairs(hist,
            fmm::nfi_histogram<2>(instance.particles(), instance.grid(), part,
                                  radius, norm),
            net, 1);
  return hist;
}

HopHistogram ffi_histogram(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::Topology& net) {
  HopHistogram hist(net.diameter());
  const fmm::FfiHistograms pairs =
      fmm::ffi_histograms<2>(instance.tree(), part);
  // Anterpolation mirrors interpolation pair for pair, and distance() is
  // symmetric, so each interpolation pair stands for two communications.
  add_pairs(hist, pairs.interpolation, net, 2);
  add_pairs(hist, pairs.interaction, net, 1);
  return hist;
}

}  // namespace sfc::core
