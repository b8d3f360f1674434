// ext_weighted — SFC load balancing (paper reference [4], Aluru &
// Sevilgen): when per-particle work is non-uniform, the curve order is cut
// by running *weight* instead of count. This harness measures what that
// buys (load imbalance) and what it costs (ACD) on a clustered input
// where near-field work is density-proportional.
#include <iostream>

#include "bench_common.hpp"
#include "fmm/enumerate.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_weighted",
                       "weighted vs equal-count SFC partitioning");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "60000");
  args.add_option("level", "log2 resolution side", "9");
  args.add_option("procs", "processor count", "1024");
  args.add_option("radius", "near-field Chebyshev radius", "2");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");
  const auto radius = args.u32("radius");

  std::cout << "== Weighted partitioning: " << particles_n
            << " clustered particles, " << (1u << level)
            << "^2 resolution, p=" << procs << " torus, r=" << radius
            << " ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto raw = dist::sample_particles<2>(dist::DistKind::kClusters, sample);

  util::Table table("equal-count vs weight-balanced chunking");
  table.set_header({"curve", "imb(count)", "imb(weighted)", "ACD(count)",
                    "ACD(weighted)"});

  for (const CurveKind kind : kPaperCurves) {
    const auto curve = make_curve<2>(kind);
    const core::AcdInstance<2> instance(raw, level, *curve);
    const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                            procs, curve.get());

    // Work model: one unit per particle plus one per near-field
    // interaction it must compute (density-proportional).
    std::vector<double> weights(instance.particles().size(), 1.0);
    fmm::nfi_visit<2>(instance.particles(), instance.grid(), radius,
                      fmm::NeighborNorm::kChebyshev,
                      [&](std::size_t i, std::size_t) { weights[i] += 1.0; });

    const fmm::Partition equal(instance.particles().size(), procs);
    const auto balanced = fmm::Partition::weighted(weights, procs);

    const double acd_equal = instance.nfi(equal, *net, radius).acd();
    const double acd_weighted = instance.nfi(balanced, *net, radius).acd();
    table.add_row(std::string(curve_name(kind)),
                  {equal.imbalance(weights), balanced.imbalance(weights),
                   acd_equal, acd_weighted});
    if (args.flag("progress")) {
      std::cerr << "  .. " << curve_name(kind) << " done\n";
    }
  }

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: weight-balanced cuts bring the heaviest "
               "processor's load to ~1x ideal at a small ACD\nchange — the "
               "SFC ordering, not the cut rule, is what controls "
               "communication distance, so the paper's\ncurve "
               "recommendations hold for the load-balanced deployment "
               "too.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
