// ext_dragonfly — extends the paper's Figure 6 topology comparison to a
// modern high-radix interconnect. The Dragonfly's diameter-3 structure is
// what replaced the tori the paper studied; this harness asks how much of
// the SFC question survives on it (answer: the particle-ordering question
// survives intact; the processor-ordering question mostly disappears,
// because everything is 0-3 hops from everything).
#include <iostream>

#include "bench_common.hpp"
#include "comm/primitives.hpp"
#include "topology/dragonfly.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_dragonfly",
                       "FMM ACD on a Dragonfly vs the paper's topologies");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "50000");
  args.add_option("level", "log2 resolution side", "9");
  args.add_option("group-size", "Dragonfly routers per group", "8");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto a = args.u32("group-size");
  const auto radius = args.u32("radius");

  const topo::DragonflyTopology dragonfly(a);
  const topo::Rank p_df = dragonfly.size();
  // Nearest power-of-four size for the grid-based references.
  topo::Rank p_grid = 4;
  while (p_grid * 4 <= p_df) p_grid *= 4;

  std::cout << "== Dragonfly extension: " << particles_n
            << " uniform particles, " << (1u << level)
            << "^2 resolution; Dragonfly a=" << a << " (p=" << p_df
            << ") vs torus/quadtree/hypercube (p=" << p_grid << ") ==\n\n";

  dist::SampleConfig sample;
  sample.count = particles_n;
  sample.level = level;
  sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto particles =
      dist::sample_particles<2>(dist::DistKind::kUniform, sample);

  util::Table table("NFI / FFI ACD per topology (Hilbert particle order)");
  table.set_header({"topology", "p", "NFI ACD", "FFI ACD",
                    "broadcast ACD"});

  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(particles, level, *curve);

  auto add_row = [&](const std::string& name, const topo::Topology& net) {
    const fmm::Partition part(instance.particles().size(), net.size());
    table.add_row(name,
                  {static_cast<double>(net.size()),
                   instance.nfi(part, net, radius).acd(),
                   instance.ffi(part, net).total().acd(),
                   comm::primitive_acd(net,
                                       comm::Primitive::kBroadcastBinomial)});
    if (args.flag("progress")) std::cerr << "  .. " << name << " done\n";
  };

  add_row("Dragonfly", dragonfly);
  const topo::Rank p_linear = p_df;
  add_row("Ring", *topo::make_topology<2>(topo::TopologyKind::kRing,
                                          p_linear, curve.get()));
  add_row("Bus", *topo::make_topology<2>(topo::TopologyKind::kBus, p_linear,
                                         curve.get()));
  add_row("Torus", *topo::make_topology<2>(topo::TopologyKind::kTorus,
                                           p_grid, curve.get()));
  add_row("Quadtree", *topo::make_topology<2>(topo::TopologyKind::kQuadtree,
                                              p_grid, curve.get()));
  add_row("Hypercube", *topo::make_topology<2>(
                           topo::TopologyKind::kHypercube, p_grid,
                           curve.get()));

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: the Dragonfly's flat 0-3 hop geometry "
               "compresses every ACD toward its diameter,\nshrinking the "
               "processor-ordering question the paper studies on tori — "
               "but the particle-ordering\nquestion (who owns which data) "
               "is topology-independent and remains in full force.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
