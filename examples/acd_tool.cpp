// acd_tool — a scripting-friendly multi-command CLI over the library.
//
// Subcommand dispatch through a single flag keeps the ArgParser simple:
//   ./acd_tool --cmd index --curve hilbert --level 4 --x 3 --y 5
//   ./acd_tool --cmd point --curve z --level 4 --i 37
//   ./acd_tool --cmd distance --topology torus --procs 256 --a 10 --b 200
//   ./acd_tool --cmd anns --curve gray --level 8 --radius 1
//   ./acd_tool --cmd clusters --curve hilbert --level 7 --w 4
//   ./acd_tool --cmd acd --curve hilbert --topology torus --procs 4096
// Each prints a single machine-parseable line.
#include <iostream>

#include "core/acd.hpp"
#include "core/anns.hpp"
#include "core/clustering.hpp"
#include "util/cli.hpp"

static int run_example(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("acd_tool", "one-shot queries against the library");
  args.add_option("cmd", "index|point|distance|anns|clusters|acd", "index");
  args.add_option("curve", "curve name", "hilbert");
  args.add_option("topology", "topology name", "torus");
  args.add_option("distribution", "distribution name", "uniform");
  args.add_option("level", "grid level (side 2^level)", "4");
  args.add_option("x", "x coordinate", "0");
  args.add_option("y", "y coordinate", "0");
  args.add_option("i", "curve index", "0");
  args.add_option("a", "first processor rank", "0");
  args.add_option("b", "second processor rank", "0");
  args.add_option("procs", "processor count", "256");
  args.add_option("particles", "particle count (acd command)", "20000");
  args.add_option("radius", "neighborhood radius", "1");
  args.add_option("w", "query window side (clusters command)", "4");
  args.add_option("seed", "RNG seed", "1");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  const auto curve_kind = parse_curve(args.str("curve"));
  const auto topo_kind = topo::parse_topology(args.str("topology"));
  const auto dist_kind = dist::parse_dist(args.str("distribution"));
  if (!curve_kind || !topo_kind || !dist_kind) {
    std::cerr << "error: unrecognized curve/topology/distribution\n";
    return 1;
  }
  const auto level = args.u32("level");
  const auto curve = make_curve<2>(*curve_kind);
  const std::string cmd = args.str("cmd");

  if (cmd == "index") {
    const auto p = make_point(args.u32("x"),
                              args.u32("y"));
    if (!in_grid(p, level)) {
      std::cerr << "error: point outside the level-" << level << " grid\n";
      return 1;
    }
    std::cout << curve->index(p, level) << "\n";
    return 0;
  }
  if (cmd == "point") {
    const auto idx = static_cast<std::uint64_t>(args.i64("i"));
    if (idx >= grid_size<2>(level)) {
      std::cerr << "error: index outside the level-" << level << " curve\n";
      return 1;
    }
    const auto p = curve->point(idx, level);
    std::cout << p[0] << " " << p[1] << "\n";
    return 0;
  }
  if (cmd == "distance") {
    const auto net = topo::make_topology<2>(
        *topo_kind, args.u32("procs"), curve.get());
    const auto a = args.u32("a");
    const auto b = args.u32("b");
    if (a >= net->size() || b >= net->size()) {
      std::cerr << "error: rank out of range\n";
      return 1;
    }
    std::cout << net->distance(a, b) << "\n";
    return 0;
  }
  if (cmd == "anns") {
    const auto stats = core::neighbor_stretch(
        *curve, level, args.u32("radius"));
    std::cout << stats.average << " " << stats.maximum << " " << stats.pairs
              << "\n";
    return 0;
  }
  if (cmd == "clusters") {
    const auto w = args.u32("w");
    const auto stats = core::average_clusters(*curve, level, w, w);
    std::cout << stats.average << " " << stats.maximum << " "
              << stats.queries << "\n";
    return 0;
  }
  if (cmd == "acd") {
    core::Scenario2 s;
    s.particles = static_cast<std::size_t>(args.i64("particles"));
    s.level = level >= 6 ? level : 8;  // sensible floor for sampling
    s.procs = args.u32("procs");
    s.particle_curve = *curve_kind;
    s.processor_curve = *curve_kind;
    s.topology = *topo_kind;
    s.distribution = *dist_kind;
    s.radius = args.u32("radius");
    s.seed = static_cast<std::uint64_t>(args.i64("seed"));
    const auto r = core::compute_acd<2>(s);
    std::cout << r.nfi_acd() << " " << r.ffi_acd() << "\n";
    return 0;
  }
  std::cerr << "error: unknown command '" << cmd << "'\n" << args.usage();
  return 1;
}

int main(int argc, char** argv) {
  return sfc::util::run_main(argc, argv, run_example);
}
