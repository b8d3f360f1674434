// ext_stencil — SFC domain decomposition for stencil codes, the other
// classical use of particle-order SFCs: distribute ALL cells of a dense
// grid (a PDE domain, not sparse particles) into p chunks along the curve
// and price the ghost-cell exchange of a 5-point/9-point stencil sweep.
// In model terms this is the NFI with the full grid as the particle set —
// the machinery is identical, which is itself a point about the ACD
// abstraction.
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "fmm/nfi.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_stencil",
                       "ghost-exchange ACD for dense-grid decomposition");
  bench::add_common_options(args);
  args.add_option("level", "log2 grid side (all 4^level cells used)", "9");
  args.add_option("procs", "processor count", "4096");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto level = args.u32("level");
  const auto procs = args.u32("procs");

  std::cout << "== Stencil decomposition: full " << (1u << level) << "^2 "
            << "grid, p=" << procs << " torus ==\n\n";

  // The "particles" are every cell of the domain.
  std::vector<Point2> cells;
  cells.reserve(grid_size<2>(level));
  const std::uint32_t side = 1u << level;
  for (std::uint32_t y = 0; y < side; ++y) {
    for (std::uint32_t x = 0; x < side; ++x) {
      cells.push_back(make_point(x, y));
    }
  }

  util::Table table("ghost-exchange traffic per stencil sweep");
  table.set_header({"curve", "remote-frac(5pt)", "ACD(5pt)",
                    "remote-frac(9pt)", "ACD(9pt)"});

  for (const CurveKind kind : kAllCurves) {
    const auto curve = make_curve<2>(kind);
    const core::AcdInstance<2> instance(cells, level, *curve);
    const fmm::Partition part(instance.particles().size(), procs);
    const auto net = topo::make_topology<2>(topo::TopologyKind::kTorus,
                                            procs, curve.get());

    // 5-point stencil: Manhattan-1 neighbors; 9-point: Chebyshev-1. One
    // NFI histogram per stencil gives its ACD (the fold) and its remote
    // fraction: the off-diagonal counts, communications that actually
    // cross processors.
    auto stencil = [&](fmm::NeighborNorm norm) -> std::pair<double, double> {
      const core::RankPairAccumulator hist = fmm::nfi_histogram<2>(
          instance.particles(), instance.grid(), part, 1, norm);
      const core::CommTotals totals = net->fold(hist.view());
      std::uint64_t remote = 0;
      hist.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
        if (a != b) remote += count;
      });
      return {static_cast<double>(remote) / static_cast<double>(totals.count),
              totals.acd()};
    };
    const auto [five_remote, five_acd] =
        stencil(fmm::NeighborNorm::kManhattan);
    const auto [nine_remote, nine_acd] =
        stencil(fmm::NeighborNorm::kChebyshev);
    table.add_row(std::string(curve_name(kind)),
                  {five_remote, five_acd, nine_remote, nine_acd});
    if (args.flag("progress")) {
      std::cerr << "  .. " << curve_name(kind) << " done\n";
    }
  }

  table.print(std::cout, bench::table_style(args));
  std::cout << "\nreading guide: 'remote-frac' is the ghost fraction — "
               "the surface-to-volume of the chunks the curve\ncuts; ACD "
               "prices where those ghosts travel. Hilbert/Moore chunks are "
               "the most compact; row-major's\nchunks are 1-cell-thin "
               "strips whose entire surface is remote.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
