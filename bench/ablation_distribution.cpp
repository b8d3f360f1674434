// ablation_distribution — Section VI-A/VI-C distribution claims:
//   * NFI: uniform is best, exponential second, normal worst (the central
//     cluster straddles every recursive curve's biggest discontinuity),
//     with roughly a 2x uniform-to-normal gap for the recursive curves;
//   * FFI: the distributions are nearly indistinguishable, with
//     exponential at or below uniform (sparser quadrants -> smaller
//     interaction lists at fine levels).
#include <iostream>
#include <memory>

#include "bench_common.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ablation_distribution",
                       "ACD per input distribution (Hilbert/Hilbert)");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "150000");
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("procs", "processor count", "16384");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  args.add_flag("extended",
                "also evaluate the Clusters and Plummer n-body inputs");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");
  const auto radius = args.u32("radius");
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));

  std::cout << "== Distribution ablation: " << particles_n << " particles, "
            << (1u << level) << "^2 resolution, p=" << procs
            << " torus, r=" << radius << " ==\n\n";

  const std::vector<CurveKind> curves(kPaperCurves, kPaperCurves + 4);
  util::Table nfi_table("NFI ACD per distribution (same SFC both roles)");
  util::Table ffi_table("FFI ACD per distribution (same SFC both roles)");
  std::vector<std::string> header = {"distribution"};
  for (const CurveKind c : curves) header.emplace_back(curve_name(c));
  nfi_table.set_header(header);
  ffi_table.set_header(header);
  nfi_table.mark_minima(true);
  ffi_table.mark_minima(true);

  std::vector<dist::DistKind> kinds(std::begin(dist::kAllDistributions),
                                    std::end(dist::kAllDistributions));
  if (args.flag("extended")) {
    kinds.assign(std::begin(dist::kExtendedDistributions),
                 std::end(dist::kExtendedDistributions));
  }
  for (const dist::DistKind kind : kinds) {
    dist::SampleConfig sample;
    sample.count = particles_n;
    sample.level = level;
    sample.seed = seed;
    const auto particles = dist::sample_particles<2>(kind, sample);
    const fmm::Partition part(particles.size(), procs);

    std::vector<double> nfi_row, ffi_row;
    for (const CurveKind ck : curves) {
      const auto curve = make_curve<2>(ck);
      const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                              procs, curve.get());
      const core::AcdInstance<2> instance(particles, level, *curve);
      nfi_row.push_back(instance.nfi(part, *net, radius).acd());
      ffi_row.push_back(instance.ffi(part, *net).total().acd());
      if (args.flag("progress")) {
        std::cerr << "  .. " << dist_name(kind) << " " << curve_name(ck)
                  << " done\n";
      }
    }
    nfi_table.add_row(std::string(dist_name(kind)), std::move(nfi_row));
    ffi_table.add_row(std::string(dist_name(kind)), std::move(ffi_row));
  }

  const auto style = bench::table_style(args);
  nfi_table.print(std::cout, style);
  std::cout << "\n";
  ffi_table.print(std::cout, style);
  std::cout << "\nexpected shape: NFI uniform < exponential < normal "
               "(normal ~ 2x uniform for the recursive curves);\nFFI "
               "distributions are close, with exponential <= uniform; the "
               "curve ordering never changes, so dynamically\nreordering "
               "particles between FMM iterations buys nothing.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
