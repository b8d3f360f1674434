// fmm_solver — runs the actual 2-D Laplace FMM solver and ties it back to
// the communication model: the translation counts the solver performs are
// the communications the ACD metric prices.
//
// Run: ./fmm_solver [--charges 4000] [--tree-level 4] [--terms 12]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "fmm/laplace_fmm.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

static int run_example(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("fmm_solver",
                       "2-D Laplace FMM vs direct summation");
  args.add_option("charges", "number of point charges", "4000");
  args.add_option("tree-level", "quadtree leaf level", "4");
  args.add_option("terms", "multipole expansion order p", "12");
  args.add_option("seed", "RNG seed", "7");
  args.add_flag("skip-direct", "skip the O(n^2) reference (large n)");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  const auto n = static_cast<std::size_t>(args.i64("charges"));
  fmm::FmmSolverConfig cfg;
  cfg.tree_level = args.u32("tree-level");
  cfg.terms = args.u32("terms");

  util::Xoshiro256pp rng(static_cast<std::uint64_t>(args.i64("seed")));
  std::vector<fmm::Charge> charges;
  charges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    charges.push_back({util::uniform01(rng), util::uniform01(rng),
                       util::uniform01(rng) * 2.0 - 1.0});
  }

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const fmm::LaplaceFmm2D fmm(charges, cfg);
  const auto t1 = clock::now();
  const double fmm_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  std::cout << "FMM: n=" << n << ", leaf level " << cfg.tree_level << " ("
            << (1u << cfg.tree_level) << "^2 leaves), p=" << cfg.terms
            << " -> " << fmm_ms << " ms\n";

  const auto& counts = fmm.pass_counts();
  std::printf(
      "translation counts (the communications the ACD model prices):\n"
      "  P2M %8llu   M2M %8llu   M2L %8llu\n"
      "  L2L %8llu   L2P %8llu   P2P pairs %llu\n",
      static_cast<unsigned long long>(counts.p2m),
      static_cast<unsigned long long>(counts.m2m),
      static_cast<unsigned long long>(counts.m2l),
      static_cast<unsigned long long>(counts.l2l),
      static_cast<unsigned long long>(counts.l2p),
      static_cast<unsigned long long>(counts.p2p_pairs));

  if (!args.flag("skip-direct")) {
    const auto t2 = clock::now();
    const auto direct = fmm::direct_potentials(charges);
    const auto t3 = clock::now();
    const double direct_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();

    double scale = 0.0, err = 0.0;
    for (const double v : direct) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(fmm.potentials()[i] - direct[i]));
    }
    std::cout << "direct: " << direct_ms << " ms (speedup "
              << direct_ms / fmm_ms << "x)\n"
              << "max relative error vs direct: " << err / scale << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return sfc::util::run_main(argc, argv, run_example);
}
