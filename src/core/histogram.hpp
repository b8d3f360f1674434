// histogram.hpp — the distribution behind the average.
//
// ACD (Definition 1) compresses each communication set to a mean; for
// capacity planning the tail matters just as much (a p99 of
// diameter-length paths serializes differently than a uniform spread of
// short hops). This extension materializes the full hop-distance histogram
// of the NFI/FFI communication sets, with exact percentiles. The hop
// distribution depends only on the rank-pair histograms the ACD engines
// already build (fmm::nfi_histogram, fmm::ffi_histograms), so it is a fold
// of those: one distance() call per distinct rank pair, weighted by the
// pair's count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/acd.hpp"

namespace sfc::core {

class HopHistogram {
 public:
  /// Bins cover distances 0..max_distance (one bin per hop count).
  explicit HopHistogram(std::uint64_t max_distance);

  /// Record `count` communications of `distance` hops.
  void add(std::uint64_t distance, std::uint64_t count = 1);

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t hops() const noexcept { return hops_; }
  std::uint64_t max_seen() const noexcept { return max_seen_; }

  /// Mean hop distance == the ACD of the recorded set.
  double mean() const noexcept;

  /// Exact q-quantile (q in [0, 1]) by cumulative counts: the smallest
  /// distance d such that at least q * total communications have
  /// distance <= d. Returns 0 on an empty histogram.
  std::uint64_t percentile(double q) const;

  /// Count of communications with exactly this distance.
  std::uint64_t bin(std::uint64_t distance) const {
    return distance < bins_.size() ? bins_[distance] : 0;
  }
  const std::vector<std::uint64_t>& bins() const noexcept { return bins_; }

  /// Fraction of communications that stay on-processor (distance 0).
  double local_fraction() const noexcept;

  /// A compact ASCII bar rendering (one row per nonzero bin, `width`
  /// characters for the largest bin).
  std::string ascii(unsigned width = 50) const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t max_seen_ = 0;
};

/// Histogram of the near-field communication set.
HopHistogram nfi_histogram(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::Topology& net, unsigned radius,
                           fmm::NeighborNorm norm =
                               fmm::NeighborNorm::kChebyshev);

/// Histogram of the far-field communication set (all three components).
HopHistogram ffi_histogram(const AcdInstance<2>& instance,
                           const fmm::Partition& part,
                           const topo::Topology& net);

}  // namespace sfc::core
