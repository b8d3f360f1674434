// ext_contention — paper future-work item (i): does the SFC pairing that
// minimizes the (contention-unaware) ACD also minimize link congestion?
// Routes every NFI/FFI message with dimension-order routing on the torus
// and reports the worst link load and the max/mean imbalance per pairing.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "core/contention.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_contention",
                       "link congestion per SFC pairing (DOR routing)");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "100000");
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("proc-level", "log2 torus side (p = 4^this)", "6");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto proc_level = args.u32("proc-level");
  const auto radius = args.u32("radius");
  const topo::Rank procs = 1u << (2 * proc_level);

  std::cout << "== Contention extension: " << particles_n
            << " uniform particles, " << (1u << level) << "^2 resolution, "
            << procs << "-processor torus, r=" << radius << " ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto particles =
      dist::sample_particles<2>(dist::DistKind::kUniform, sample);
  const fmm::Partition part(particles.size(), procs);

  util::Table table("NFI + FFI congestion, same SFC both roles (torus)");
  table.set_header({"curve", "ACD", "max-link", "mean-used", "imbalance"});
  table.mark_minima(false);

  for (const CurveKind kind : kAllCurves) {
    const auto curve = make_curve<2>(kind);
    const topo::TorusTopology<2> torus(proc_level, *curve);
    const core::AcdInstance<2> instance(particles, level, *curve);

    const auto nfi_c =
        core::nfi_congestion(instance, part, torus, true, radius);
    const auto ffi_c = core::ffi_congestion(instance, part, torus, true);
    core::CongestionStats combined;
    combined.messages = nfi_c.messages + ffi_c.messages;
    combined.hops = nfi_c.hops + ffi_c.hops;
    combined.max_link_load = std::max(nfi_c.max_link_load,
                                      ffi_c.max_link_load);
    combined.links_used = std::max(nfi_c.links_used, ffi_c.links_used);
    combined.total_links = nfi_c.total_links;

    const double acd = combined.messages == 0
                           ? 0.0
                           : static_cast<double>(combined.hops) /
                                 static_cast<double>(combined.messages);
    table.add_row(std::string(curve_name(kind)),
                  {acd, static_cast<double>(combined.max_link_load),
                   combined.mean_used_load(), combined.imbalance()});
    if (args.flag("progress")) {
      std::cerr << "  .. " << curve_name(kind) << " done\n";
    }
  }

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: 'max-link' is the serialization "
               "bottleneck a contention-aware model would report.\nThe "
               "expected result: the ACD ordering (Hilbert/Moore best, "
               "row-major worst) carries over to the worst link,\ni.e. "
               "minimizing ACD does not trade away congestion in this "
               "model.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
