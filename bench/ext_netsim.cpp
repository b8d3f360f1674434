// ext_netsim — the temporal view of contention (paper future-work i, one
// level deeper than ext_contention): inject the NFI communication set into
// a cycle-accurate store-and-forward torus and measure the makespan, per-
// message latency, and the slowdown relative to the contention-free hop
// count. Answers: does the SFC pairing that minimizes ACD also finish its
// communication phase first when links serialize?
#include <iostream>

#include "bench_common.hpp"
#include "fmm/enumerate.hpp"
#include "topology/grid.hpp"
#include "topology/netsim.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_netsim",
                       "cycle-accurate NFI phase simulation per SFC");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "40000");
  args.add_option("level", "log2 resolution side", "9");
  args.add_option("proc-level", "log2 torus side (p = 4^this)", "5");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto proc_level = args.u32("proc-level");
  const auto radius = args.u32("radius");
  const topo::Rank procs = 1u << (2 * proc_level);

  std::cout << "== Store-and-forward simulation: " << particles_n
            << " uniform particles, " << (1u << level)
            << "^2 resolution, p=" << procs << " torus, r=" << radius
            << " ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto raw = dist::sample_particles<2>(dist::DistKind::kUniform, sample);
  const fmm::Partition part(raw.size(), procs);

  util::Table table("NFI phase under link serialization (torus, DOR)");
  table.set_header({"curve", "messages", "ACD", "makespan", "mean-latency",
                    "slowdown"});

  for (const CurveKind kind : kAllCurves) {
    const auto curve = make_curve<2>(kind);
    const core::AcdInstance<2> instance(raw, level, *curve);
    const topo::TorusTopology<2> torus(proc_level, *curve);

    std::vector<topo::SimMessage> msgs;
    fmm::nfi_visit<2>(instance.particles(), instance.grid(), radius,
                      fmm::NeighborNorm::kChebyshev,
                      [&](std::size_t i, std::size_t j) {
                        msgs.push_back({torus.coordinate(part.proc_of(j)),
                                        torus.coordinate(part.proc_of(i))});
                      });
    const auto sim =
        topo::simulate_store_and_forward(msgs, proc_level, true);
    const double acd =
        sim.messages == 0
            ? 0.0
            : static_cast<double>(sim.total_hops) /
                  static_cast<double>(sim.messages);
    table.add_row(std::string(curve_name(kind)),
                  {static_cast<double>(sim.messages), acd,
                   static_cast<double>(sim.makespan), sim.mean_latency,
                   sim.slowdown});
    if (args.flag("progress")) {
      std::cerr << "  .. " << curve_name(kind) << " done\n";
    }
  }

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: 'makespan' is the cycle the last packet "
               "lands; 'slowdown' is mean latency over mean hop\ndistance "
               "(1.0 = no queueing). Expected: the ACD ordering survives "
               "serialization — locality both shortens\npaths and spreads "
               "them over disjoint links.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
