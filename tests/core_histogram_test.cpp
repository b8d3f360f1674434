// Hop-histogram tests: exact bookkeeping, percentile semantics, and
// agreement with the ACD reducers on the same communication sets.
#include "core/histogram.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "distribution/distribution.hpp"

namespace sfc::core {
namespace {

TEST(HopHistogram, BasicBookkeeping) {
  HopHistogram h(8);
  for (const std::uint64_t d : {0u, 0u, 1u, 3u, 3u, 3u, 8u}) h.add(d);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.hops(), 0 + 0 + 1 + 9 + 8u);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(3), 3u);
  EXPECT_EQ(h.bin(5), 0u);
  EXPECT_EQ(h.max_seen(), 8u);
  EXPECT_NEAR(h.mean(), 18.0 / 7.0, 1e-12);
  EXPECT_NEAR(h.local_fraction(), 2.0 / 7.0, 1e-12);
}

TEST(HopHistogram, WeightedAddEqualsRepeatedAdds) {
  HopHistogram weighted(4);
  HopHistogram repeated(4);
  weighted.add(3, 5);
  weighted.add(6, 2);
  weighted.add(1, 0);  // a zero count records nothing
  for (int i = 0; i < 5; ++i) repeated.add(3);
  for (int i = 0; i < 2; ++i) repeated.add(6);
  EXPECT_EQ(weighted.bins(), repeated.bins());
  EXPECT_EQ(weighted.total(), repeated.total());
  EXPECT_EQ(weighted.hops(), repeated.hops());
  EXPECT_EQ(weighted.max_seen(), 6u);
}

TEST(HopHistogram, GrowsBeyondDeclaredMax) {
  HopHistogram h(2);
  h.add(10);
  EXPECT_EQ(h.bin(10), 1u);
  EXPECT_EQ(h.max_seen(), 10u);
}

TEST(HopHistogram, PercentileSemantics) {
  HopHistogram h(10);
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(9);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.9), 1u);
  EXPECT_EQ(h.percentile(0.95), 9u);
  EXPECT_EQ(h.percentile(1.0), 9u);
  EXPECT_EQ(h.percentile(0.0), 0u);  // smallest d with cum >= 0
}

TEST(HopHistogram, PercentileValidation) {
  HopHistogram h(4);
  EXPECT_THROW(h.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.percentile(1.1), std::invalid_argument);
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty histogram
}

TEST(HopHistogram, AsciiRendering) {
  HopHistogram h(4);
  h.add(0);
  h.add(2);
  h.add(2);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find("0 |"), std::string::npos);
  EXPECT_NE(art.find("2 | ########## 2"), std::string::npos);
  EXPECT_EQ(HopHistogram(3).ascii(), "(empty)\n");
}

class HistogramPipeline : public ::testing::Test {
 protected:
  HistogramPipeline() {
    dist::SampleConfig cfg;
    cfg.count = 2500;
    cfg.level = 7;
    cfg.seed = 5;
    particles_ = dist::sample_particles<2>(dist::DistKind::kUniform, cfg);
    curve_ = make_curve<2>(CurveKind::kHilbert);
    instance_ =
        std::make_unique<AcdInstance<2>>(particles_, 7, *curve_);
  }
  std::vector<Point2> particles_;
  std::unique_ptr<Curve<2>> curve_;
  std::unique_ptr<AcdInstance<2>> instance_;
};

TEST_F(HistogramPipeline, NfiHistogramMatchesAcdTotals) {
  const fmm::Partition part(particles_.size(), 256);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus, 256,
                                          curve_.get());
  const auto hist = nfi_histogram(*instance_, part, *net, 2);
  const auto totals = instance_->nfi(part, *net, 2);
  EXPECT_EQ(hist.total(), totals.count);
  EXPECT_EQ(hist.hops(), totals.hops);
  EXPECT_DOUBLE_EQ(hist.mean(), totals.acd());
}

TEST_F(HistogramPipeline, FfiHistogramMatchesAcdTotals) {
  const fmm::Partition part(particles_.size(), 256);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus, 256,
                                          curve_.get());
  const auto hist = ffi_histogram(*instance_, part, *net);
  const auto totals = instance_->ffi(part, *net).total();
  EXPECT_EQ(hist.total(), totals.count);
  EXPECT_EQ(hist.hops(), totals.hops);
}

TEST_F(HistogramPipeline, MaxNeverExceedsDiameter) {
  const fmm::Partition part(particles_.size(), 256);
  const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus, 256,
                                          curve_.get());
  const auto hist = nfi_histogram(*instance_, part, *net, 1);
  EXPECT_LE(hist.max_seen(), net->diameter());
}

TEST_F(HistogramPipeline, HilbertKeepsMoreTrafficLocalThanRowMajor) {
  const fmm::Partition part(particles_.size(), 256);
  const auto row = make_curve<2>(CurveKind::kRowMajor);
  const AcdInstance<2> row_instance(particles_, 7, *row);
  const auto net_h = topo::make_topology<2>(topo::TopologyKind::kTorus, 256,
                                            curve_.get());
  const auto net_r =
      topo::make_topology<2>(topo::TopologyKind::kTorus, 256, row.get());
  const auto hist_h = nfi_histogram(*instance_, part, *net_h, 1);
  const auto hist_r = nfi_histogram(row_instance, part, *net_r, 1);
  EXPECT_GT(hist_h.local_fraction(), hist_r.local_fraction());
  EXPECT_LT(hist_h.mean(), hist_r.mean());
  // Note: row-major's p99 can be *smaller* than Hilbert's — its traffic
  // concentrates at mid distances while Hilbert trades a thin long tail
  // for a large local mass. The mean (ACD) is what the paper ranks by.
}

}  // namespace
}  // namespace sfc::core
