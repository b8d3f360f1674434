// ext_compressed — the compressed-quadtree ablation: the paper's Section
// III describes the domain as a compressed quadtree, but the ACD
// computation of Section IV walks every occupied cell. Collapsing the
// singleton chains removes exactly the zero-hop accumulation messages, so
// the hop totals are representation-independent while the message counts
// (ACD's denominator) are not — a pitfall when comparing ACD values across
// implementations.
#include <iostream>

#include "bench_common.hpp"
#include "fmm/compressed.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_compressed",
                       "compressed vs uncompressed accumulation model");
  bench::add_common_options(args);
  args.add_option("particles", "number of particles", "100000");
  args.add_option("level", "log2 resolution side", "10");
  args.add_option("procs", "processor count", "4096");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto particles_n = static_cast<std::size_t>(args.i64("particles"));
  const auto level = args.u32("level");
  const auto procs = args.u32("procs");

  std::cout << "== Compressed-quadtree ablation: " << particles_n
            << " particles, " << (1u << level) << "^2 resolution, p="
            << procs << " torus, Hilbert both roles ==\n\n";

  util::Table table(
      "occupied cells vs compressed nodes, and accumulation ACD");
  table.set_header({"distribution", "cells", "nodes", "ratio", "ACD-full",
                    "ACD-compressed"});
  table.set_precision(3);

  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const auto net =
      topo::make_topology<2>(topo::TopologyKind::kTorus, procs, curve.get());

  for (const dist::DistKind kind : dist::kExtendedDistributions) {
    dist::SampleConfig sample;
    sample.count = particles_n;
    sample.level = level;
    sample.seed = static_cast<std::uint64_t>(args.i64("seed"));
    const auto particles = dist::sample_particles<2>(kind, sample);
    const core::AcdInstance<2> instance(particles, level, *curve);
    const fmm::Partition part(particles.size(), procs);

    const fmm::CompressedCellTree<2> compressed(instance.tree());
    const auto full = instance.ffi(part, *net).interpolation;
    const auto collapsed =
        fmm::compressed_accumulation_totals<2>(compressed, part, *net);

    table.add_row(std::string(dist_name(kind)),
                  {static_cast<double>(instance.tree().total_cells()),
                   static_cast<double>(compressed.node_count()),
                   compressed.compression(instance.tree()), full.acd(),
                   collapsed.acd()});
    if (args.flag("progress")) {
      std::cerr << "  .. " << dist_name(kind) << " done\n";
    }
  }

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: hop totals are identical by construction "
               "(unit-tested). Sparse/isolated particles produce\nthe "
               "singleton chains that compression removes, so the uniform "
               "input compresses hardest while tight\nclusters (whose "
               "siblings are occupied) barely compress. Removing the "
               "zero-hop chain messages raises the\nreported ACD — state "
               "which tree representation you count when quoting ACD "
               "values.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
