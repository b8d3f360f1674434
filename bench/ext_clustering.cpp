// ext_clustering — the classical clustering metric (related work:
// Jagadish '90, Moon et al. '01) over the same curve set, as a counterpoint
// to Figure 5: Hilbert wins under clustering yet loses under ANNS, which
// is the tension the paper's Section V calls "surprising".
#include <iostream>

#include "bench_common.hpp"
#include "core/clustering.hpp"

static int run_bench(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("ext_clustering",
                       "average clusters per range query, per curve");
  bench::add_common_options(args);
  args.add_option("level", "log2 grid side", "7");
  args.add_flag("extended", "include snake, column-major and Moore");
  if (!bench::parse_or_usage(args, argc, argv)) return 0;

  const auto level = args.u32("level");
  std::vector<CurveKind> curves(kPaperCurves, kPaperCurves + 4);
  if (args.flag("extended")) {
    curves.assign(std::begin(kAllCurves), std::end(kAllCurves));
  }

  std::cout << "== Clustering metric: average clusters per w x w range "
               "query, "
            << (1u << level) << "^2 grid ==\n\n";

  util::Table table("average clusters (lower is better; exhaustive over all "
                    "query positions)");
  std::vector<std::string> header = {"window"};
  for (const CurveKind c : curves) header.emplace_back(curve_name(c));
  table.set_header(header);
  table.mark_minima(true);

  util::Table worst("worst-case clusters per query");
  worst.set_header(header);
  worst.mark_minima(true);

  for (const std::uint32_t w : {2u, 3u, 4u, 6u, 8u, 16u}) {
    std::vector<double> avg_row, max_row;
    for (const CurveKind kind : curves) {
      const auto curve = make_curve<2>(kind);
      const auto stats = core::average_clusters(*curve, level, w, w);
      avg_row.push_back(stats.average);
      max_row.push_back(static_cast<double>(stats.maximum));
      if (args.flag("progress")) {
        std::cerr << "  .. w=" << w << " " << curve_name(kind) << " done\n";
      }
    }
    table.add_row(std::to_string(w) + "x" + std::to_string(w),
                  std::move(avg_row));
    worst.add_row(std::to_string(w) + "x" + std::to_string(w),
                  std::move(max_row));
  }

  const auto style = bench::table_style(args);
  table.print(std::cout, style);
  std::cout << "\n";
  worst.print(std::cout, style);
  std::cout << "\nexpected shape (Moon et al.): Hilbert is best and tends "
               "to perimeter/4 clusters per query —\nthe opposite ordering "
               "of the ANNS metric in Figure 5, which is the paper's "
               "central observation about metric choice.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sfc::bench::run_main(argc, argv, run_bench);
}
