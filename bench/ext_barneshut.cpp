// ext_barneshut — the Section VII thesis made concrete: evaluate the ACD
// metric under a *different* algorithm's communication structure. A
// Barnes–Hut traversal is asymmetric (every particle pulls the tree cells
// it accepts), its volume is theta-dependent, and it mixes near and far
// traffic per particle — yet the paper's SFC recommendations should carry
// over unchanged.
#include <iostream>

#include "bench_common.hpp"
#include "fmm/barnes_hut.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_barneshut",
                       "ACD under the Barnes-Hut communication model");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "50000");
  args.add_option("level", "log2 resolution side", "9");
  args.add_option("procs", "processor count", "4096");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");

  std::cout << "== Barnes-Hut communication model: " << particles_n
            << " uniform particles, " << (1u << level)
            << "^2 resolution, p=" << procs << " torus ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto raw = dist::sample_particles<2>(dist::DistKind::kUniform, sample);
  const fmm::Partition part(raw.size(), procs);

  util::Table table("Barnes-Hut traversal ACD (same SFC both roles)");
  std::vector<std::string> header = {"theta"};
  for (const CurveKind c : kPaperCurves) header.emplace_back(curve_name(c));
  table.set_header(header);
  table.mark_minima(true);

  util::Table volume("communications per particle (theta-dependence)");
  volume.set_header(header);
  volume.set_precision(1);

  for (const double theta : {0.3, 0.5, 0.8, 1.2}) {
    std::vector<double> acd_row, vol_row;
    for (const CurveKind kind : kPaperCurves) {
      const auto curve = make_curve<2>(kind);
      const core::AcdInstance<2> instance(raw, level, *curve);
      const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                              procs, curve.get());
      const auto totals = fmm::bh_comm_totals(instance.particles(),
                                              instance.tree(), part, *net,
                                              theta);
      acd_row.push_back(totals.acd());
      vol_row.push_back(static_cast<double>(totals.count) /
                        static_cast<double>(raw.size()));
      if (args.flag("progress")) {
        std::cerr << "  .. theta=" << theta << " " << curve_name(kind)
                  << " done\n";
      }
    }
    table.add_row("theta=" + util::format_fixed(theta, 1),
                  std::move(acd_row));
    volume.add_row("theta=" + util::format_fixed(theta, 1),
                   std::move(vol_row));
  }

  const auto style = bench::table_style(args);
  table.print(std::cout, style);
  std::cout << "\n";
  volume.print(std::cout, style);
  std::cout << "\nexpected shape: the Table-I ordering (Hilbert < Z ~ Gray "
               "<< Row-major) holds at every theta, while the\nper-particle "
               "communication volume is SFC-independent — the ordering "
               "only moves the traffic closer.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
