// ext_3d_acd — paper future-work item (ii): the ACD study in three
// dimensions. The geometry layer, curves, samplers, and both FMM models
// are dimension-generic, so this harness re-runs the Table-I/Figure-7
// style comparison on a 3-D torus with an octree far field.
#include <iostream>

#include "bench_common.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_3d_acd", "ACD comparison in three dimensions");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "100000");
  args.add_option("level", "log2 resolution side (per axis)", "7");
  args.add_option("proc-level", "log2 torus side (p = 8^this)", "3");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto proc_level = args.u32("proc-level");
  const auto radius = args.u32("radius");
  const topo::Rank procs = 1u << (3 * proc_level);
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));

  std::cout << "== 3-D extension: " << particles_n << " particles, "
            << (1u << level) << "^3 resolution, " << procs
            << "-processor 3-D torus, r=" << radius << " ==\n\n";

  for (const dist::DistKind dk : dist::kAllDistributions) {
    dist::SampleConfig sample;
    sample.count = particles_n;
    sample.level = level;
    sample.seed = seed;
    const auto particles = dist::sample_particles<3>(dk, sample);
    const fmm::Partition part(particles.size(), procs);

    util::Table table(std::string(dist_name(dk)) +
                      " distribution (same SFC both roles)");
    table.set_header({"curve", "NFI ACD", "FFI ACD", "FFI interp ACD",
                      "FFI interact ACD"});
    table.mark_minima(false);
    for (const CurveKind kind : kCurves3D) {
      if (kind == CurveKind::kColumnMajor) continue;  // mirror of row-major
      const auto curve = make_curve<3>(kind);
      const auto net = topo::make_topology<3>(topo::TopologyKind::kTorus,
                                              procs, curve.get());
      const core::AcdInstance<3> instance(particles, level, *curve);
      const auto nfi = instance.nfi(part, *net, radius);
      const auto ffi = instance.ffi(part, *net);
      table.add_row(std::string(curve_name(kind)),
                    {nfi.acd(), ffi.total().acd(), ffi.interpolation.acd(),
                     ffi.interaction.acd()});
      if (args.flag("progress")) {
        std::cerr << "  .. " << dist_name(dk) << " " << curve_name(kind)
                  << " done\n";
      }
    }
    table.print(std::cout, bench::table_style(args));
    std::cout << "\n";
  }

  std::cout << "expected shape: the 2-D conclusions carry over — Hilbert "
               "(Skilling's construction generalizes to any\ndimension) "
               "remains best, the scan orders remain far worse, and the "
               "distribution ordering matches Table I.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
