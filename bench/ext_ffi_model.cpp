// ext_ffi_model — the one modeling ambiguity the paper leaves open,
// quantified: Section III describes accumulation through the spatial cell
// hierarchy, Section IV describes per-quadrant processor log-trees. This
// harness runs both on identical instances; the reproduction's headline
// tables use the cell-tree model, and this ablation shows every
// qualitative conclusion is model-independent.
#include <iostream>

#include "bench_common.hpp"
#include "fmm/ffi_logtree.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_ffi_model",
                       "cell-tree vs processor-log-tree accumulation");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "100000");
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("procs", "processor count", "16384");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");

  std::cout << "== FFI accumulation-model ablation: " << particles_n
            << " particles, " << (1u << level) << "^2 resolution, p="
            << procs << " torus ==\n\n";

  for (const dist::DistKind dk :
       {dist::DistKind::kUniform, dist::DistKind::kExponential}) {
    dist::SampleConfig sample;
    sample.count = particles_n;
    sample.level = level;
    sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
    const auto particles = dist::sample_particles<2>(dk, sample);
    const fmm::Partition part(particles.size(), procs);

    util::Table table(std::string(dist_name(dk)) +
                      ": interp+anterp ACD under the two models");
    table.set_header({"curve", "cell-tree ACD", "log-tree ACD",
                      "cell-tree msgs", "log-tree msgs"});

    for (const CurveKind kind : kPaperCurves) {
      const auto curve = make_curve<2>(kind);
      const core::AcdInstance<2> instance(particles, level, *curve);
      const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                              procs, curve.get());
      const auto cell = instance.ffi(part, *net);
      const auto cell_acc = cell.interpolation + cell.anterpolation;
      const auto log_acc = fmm::logtree_accumulation_totals<2>(
          instance.particles(), level, part, *net);
      table.add_row(std::string(curve_name(kind)),
                    {cell_acc.acd(), log_acc.acd(),
                     static_cast<double>(cell_acc.count),
                     static_cast<double>(log_acc.count)});
      if (args.flag("progress")) {
        std::cerr << "  .. " << dist_name(dk) << " " << curve_name(kind)
                  << " done\n";
      }
    }
    table.print(std::cout, bench::table_style(args));
    std::cout << "\n";
  }

  std::cout << "reading guide: the log-tree model exchanges far fewer, "
               "longer messages (it skips the per-level\ncell collection), "
               "so its absolute ACD is much higher. The conclusions are "
               "model-independent: the three\nrecursive curves stay within "
               "a few percent of each other and row-major stays clearly "
               "worst under both\nreadings of the paper's Section III/IV "
               "text — the heap-tree edges wash out fine-grained curve\n"
               "differences, which is one reason the cell-tree reading "
               "matches the paper's reported spreads better.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
