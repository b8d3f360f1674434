// fig5_anns — reproduces paper Figure 5: Average Nearest Neighbor Stretch
// of the four SFCs as the spatial resolution grows from 2x2 to 512x512,
// for (a) the standard neighborhood r=1 and (b) the larger radius r=6.
//
// This metric is exact (every grid point participates), so the default IS
// the paper scale; --max-level extends beyond it.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "fig5_anns";
  spec.description = "Figure 5: neighbor stretch vs spatial resolution";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("max-level", "largest log2 resolution to evaluate", "9");
    args.add_option("radius-a", "first neighborhood radius (Fig 5a)", "1");
    args.add_option("radius-b", "second neighborhood radius (Fig 5b)", "6");
    args.add_flag("extended", "also report the snake scan and column-major");
  };
  spec.run = [](bench::Harness& h) {
    const unsigned max_level =
        h.args().u32("max-level");

    core::AnnsStudyConfig cfg;
    cfg.levels.clear();
    for (unsigned l = 1; l <= max_level; ++l) cfg.levels.push_back(l);
    if (h.args().flag("extended")) {
      cfg.curves.assign(std::begin(kAllCurves), std::end(kAllCurves));
    }

    std::vector<std::string> header = {"resolution"};
    for (const CurveKind c : cfg.curves) header.emplace_back(curve_name(c));

    for (const auto& [radius, figure] :
         {std::pair<unsigned, const char*>(
              h.args().u32("radius-a"), "5(a)"),
          std::pair<unsigned, const char*>(
              h.args().u32("radius-b"), "5(b)")}) {
      cfg.radius = radius;
      const auto result =
          core::run_anns_study(cfg, h.pool(), h.text_progress());

      util::Table table(std::string("Figure ") + figure +
                        ": average stretch, Manhattan radius " +
                        std::to_string(radius));
      table.set_header(header);
      for (std::size_t l = 0; l < cfg.levels.size(); ++l) {
        std::vector<double> row;
        for (std::size_t c = 0; c < cfg.curves.size(); ++c) {
          row.push_back(result.stats[c][l].average);
        }
        const unsigned side = 1u << cfg.levels[l];
        table.add_row(std::to_string(side) + "x" + std::to_string(side),
                      std::move(row));
      }
      h.emit(table);

      util::Table mnns(
          std::string("maximum stretch (MNNS when r=1), radius ") +
          std::to_string(radius));
      mnns.set_header(header);
      for (std::size_t l = 0; l < cfg.levels.size(); ++l) {
        std::vector<double> row;
        for (std::size_t c = 0; c < cfg.curves.size(); ++c) {
          row.push_back(result.stats[c][l].maximum);
        }
        const unsigned side = 1u << cfg.levels[l];
        mnns.add_row(std::to_string(side) + "x" + std::to_string(side),
                     std::move(row));
      }
      h.emit(mnns);
    }

    // The third Xu–Tirthapura metric for completeness: sampled all-pairs
    // stretch at the largest resolution.
    {
      util::Table table("all-pairs stretch (Monte-Carlo, 100k pairs) at " +
                        std::to_string(1u << max_level) + "x" +
                        std::to_string(1u << max_level));
      std::vector<std::string> aps_header = {"metric"};
      for (const CurveKind c : cfg.curves)
        aps_header.emplace_back(curve_name(c));
      table.set_header(aps_header);
      std::vector<double> row;
      for (const CurveKind c : cfg.curves) {
        row.push_back(
            core::all_pairs_stretch(*make_curve<2>(c), max_level, 100000, 1)
                .average);
      }
      table.add_row("APS", std::move(row));
      h.emit(table);
    }

    h.prose() << "expected shape (paper Fig. 5): Z-curve and Row-major beat "
                 "Gray and Hilbert at every resolution;\nthe gap widens as "
                 "the resolution grows, and the ordering is radius-"
                 "independent. The all-pairs stretch\ndiscriminates far less "
                 "— random pairs are distant, where every bijection looks "
                 "alike (Xu & Tirthapura).\n";
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
