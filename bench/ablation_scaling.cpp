// ablation_scaling — Section VI-C claim: ACD behaviour "holds both as the
// number of particles is increased for a fixed number of processors and as
// the number of processors is increased for a fixed number of particles",
// and the payoff from choosing a better SFC grows with the problem size.
#include <iostream>
#include <memory>

#include "bench_common.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ablation_scaling",
                       "ACD vs input size at a fixed processor count");
  bench::add_common_options(args);
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("procs", "processor count", "4096");
  args.add_option("max-particles", "largest particle count", "256000");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto level = args.u32("level");
  const auto procs = args.u32("procs");
  const auto max_particles =
      static_cast<std::size_t>(args.i64("max-particles"));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));

  std::cout << "== Input-size ablation: uniform particles, " << (1u << level)
            << "^2 resolution, p=" << procs << " torus ==\n\n";

  const std::vector<CurveKind> curves(kPaperCurves, kPaperCurves + 4);
  std::vector<std::unique_ptr<topo::Topology>> nets;
  for (const CurveKind kind : curves) {
    const auto curve = make_curve<2>(kind);
    nets.push_back(topo::make_topology<2>(topo::TopologyKind::kTorus, procs,
                                          curve.get()));
  }

  util::Table nfi_table("NFI ACD vs particle count (r=1)");
  util::Table ffi_table("FFI ACD vs particle count");
  std::vector<std::string> header = {"particles"};
  for (const CurveKind c : curves) header.emplace_back(curve_name(c));
  nfi_table.set_header(header);
  ffi_table.set_header(header);
  nfi_table.mark_minima(true);
  ffi_table.mark_minima(true);

  for (std::size_t n = max_particles / 16; n <= max_particles; n *= 4) {
    dist::SampleConfig sample;
    sample.count = n;
    sample.level = level;
    sample.seed = seed;
    const auto particles =
        dist::sample_particles<2>(dist::DistKind::kUniform, sample);
    const fmm::Partition part(particles.size(), procs);

    std::vector<double> nfi_row, ffi_row;
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const auto curve = make_curve<2>(curves[c]);
      const core::AcdInstance<2> instance(particles, level, *curve);
      nfi_row.push_back(instance.nfi(part, *nets[c], 1).acd());
      ffi_row.push_back(instance.ffi(part, *nets[c]).total().acd());
      if (args.flag("progress")) {
        std::cerr << "  .. n=" << n << " " << curve_name(curves[c])
                  << " done\n";
      }
    }
    nfi_table.add_row("n=" + std::to_string(n), std::move(nfi_row));
    ffi_table.add_row("n=" + std::to_string(n), std::move(ffi_row));
  }

  const auto style = bench::table_style(args);
  nfi_table.print(std::cout, style);
  std::cout << "\n";
  ffi_table.print(std::cout, style);
  std::cout << "\nexpected shape: Hilbert stays best at every input size; "
               "the absolute gap to row-major widens as n grows.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
