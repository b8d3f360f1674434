// ablation_radius — Section VI-C claim: varying the near-field radius r
// raises every curve's ACD but never changes the curves' relative order,
// "so it does not provide any incentive to select separate SFCs for larger
// radius values."
#include <iostream>
#include <memory>

#include "bench_common.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ablation_radius", "NFI ACD as a function of radius");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "100000");
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("procs", "processor count", "4096");
  args.add_option("max-radius", "largest radius to evaluate", "6");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");
  const auto max_radius = args.u32("max-radius");
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));

  std::cout << "== Radius ablation: " << particles_n << " uniform particles, "
            << (1u << level) << "^2 resolution, p=" << procs
            << " torus ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = seed;
  const auto particles =
      dist::sample_particles<2>(dist::DistKind::kUniform, sample);
  const fmm::Partition part(particles.size(), procs);

  util::Table table("NFI ACD vs near-field radius (torus, same SFC both roles)");
  std::vector<std::string> header = {"radius"};
  std::vector<std::unique_ptr<core::AcdInstance<2>>> instances;
  std::vector<std::unique_ptr<topo::Topology>> nets;
  std::vector<CurveKind> curves(kPaperCurves, kPaperCurves + 4);
  for (const CurveKind kind : curves) {
    header.emplace_back(curve_name(kind));
    const auto curve = make_curve<2>(kind);
    instances.push_back(
        std::make_unique<core::AcdInstance<2>>(particles, level, *curve));
    nets.push_back(
        topo::make_topology<2>(topo::TopologyKind::kTorus, procs, curve.get()));
  }
  table.set_header(header);
  table.mark_minima(true);

  for (unsigned r = 1; r <= max_radius; ++r) {
    std::vector<double> row;
    for (std::size_t c = 0; c < curves.size(); ++c) {
      row.push_back(instances[c]->nfi(part, *nets[c], r).acd());
      if (args.flag("progress")) {
        std::cerr << "  .. r=" << r << " " << curve_name(curves[c])
                  << " done\n";
      }
    }
    table.add_row("r=" + std::to_string(r), std::move(row));
  }
  table.print(std::cout, bench::table_style(args));

  std::cout << "\nexpected shape (paper Section VI-C): every column grows "
               "with r, but the per-row ordering of the\ncurves (Hilbert "
               "best, row-major worst) never changes.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
