// nbody_sim — the end-to-end workload the paper's introduction motivates:
// a 2-D self-gravitating cluster integrated with leapfrog over FMM forces,
// reporting the conservation diagnostics and the communication volume an
// SFC-distributed run of each step would price with the ACD metric.
//
// Run: ./nbody_sim [--bodies 2000] [--steps 200] [--dt 0.00005]
#include <cstdio>
#include <iostream>

#include "fmm/nbody.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

static int run_example(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("nbody_sim", "leapfrog n-body over the FMM solver");
  args.add_option("bodies", "number of bodies", "2000");
  args.add_option("steps", "leapfrog steps", "200");
  args.add_option("dt", "timestep", "0.00005");
  args.add_option("terms", "FMM expansion order", "10");
  args.add_option("tree-level", "FMM leaf level", "4");
  args.add_option("seed", "RNG seed", "42");
  args.add_flag("direct", "use O(n^2) forces instead of the FMM");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  const auto n = static_cast<std::size_t>(args.i64("bodies"));
  const auto steps = args.u32("steps");

  fmm::NbodyConfig cfg;
  cfg.dt = args.f64("dt");
  cfg.use_fmm = !args.flag("direct");
  cfg.fmm.terms = args.u32("terms");
  cfg.fmm.tree_level = args.u32("tree-level");

  // A Plummer-like central cluster with small virial velocities.
  util::Xoshiro256pp rng(static_cast<std::uint64_t>(args.i64("seed")));
  util::NormalSampler normal;
  std::vector<fmm::Charge> bodies;
  std::vector<fmm::Vec2> velocities;
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.5 + 0.08 * normal(rng);
    double y = 0.5 + 0.08 * normal(rng);
    x = std::min(std::max(x, 0.05), 0.95);
    y = std::min(std::max(y, 0.05), 0.95);
    bodies.push_back({x, y, 1.0 / static_cast<double>(n)});
    velocities.push_back({0.02 * normal(rng), 0.02 * normal(rng)});
  }

  fmm::NbodyIntegrator sim(std::move(bodies), std::move(velocities), cfg);
  const double e0 = sim.total_energy();
  std::printf("n=%zu  dt=%g  %s forces  E0=%+.6f\n", n, cfg.dt,
              cfg.use_fmm ? "FMM" : "direct", e0);
  std::printf("%8s %14s %14s %12s %8s\n", "step", "E", "dE/E0", "|P|",
              "bounces");

  const unsigned report_every = steps >= 10 ? steps / 10 : 1;
  for (unsigned s = 0; s < steps; s += report_every) {
    sim.step(std::min(report_every, steps - s));
    const double e = sim.total_energy();
    const auto p = sim.momentum();
    std::printf("%8llu %+14.6f %14.2e %12.4e %8llu\n",
                static_cast<unsigned long long>(sim.steps_taken()), e,
                (e - e0) / std::abs(e0), std::hypot(p.x, p.y),
                static_cast<unsigned long long>(sim.wall_bounces()));
  }

  // One step's communication volume, as the ACD pipeline would price it:
  // the FMM pass counts are exactly the NFI/FFI message families.
  const fmm::LaplaceFmm2D solver(sim.bodies(), cfg.fmm);
  const auto& c = solver.pass_counts();
  std::printf(
      "\nper-step communication profile (what the ACD metric prices):\n"
      "  near field: %llu particle pairs\n"
      "  far field:  %llu M2L (interaction lists), %llu M2M + %llu L2L "
      "(inter/anterpolation)\n",
      static_cast<unsigned long long>(c.p2p_pairs),
      static_cast<unsigned long long>(c.m2l),
      static_cast<unsigned long long>(c.m2m),
      static_cast<unsigned long long>(c.l2l));
  return 0;
}

int main(int argc, char** argv) {
  return sfc::util::run_main(argc, argv, run_example);
}
