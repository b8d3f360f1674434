// table1_nfi — reproduces paper Table I: ACD of every {particle-order,
// processor-order} SFC pairing under the near-field interaction model, for
// the uniform, normal and exponential input distributions.
//
// Paper parameters (the default): 250,000 particles on a 1024x1024 spatial
// resolution, 65,536 processors on a torus, near-field radius 1.
#include "bench_common.hpp"
#include "harness.hpp"
#include "paper_reference.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "table1_nfi";
  spec.description = "Table I: particle/processor SFC pairings, NFI ACD";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("particles", "number of particles", "250000");
    args.add_option("level", "log2 of the spatial resolution side", "10");
    args.add_option("procs", "processor count (must be 4^k)", "65536");
    args.add_option("radius", "near-field Chebyshev radius", "1");
  };
  spec.run = [](bench::Harness& h) {
    core::Study study;
    study.name = "table1_nfi";
    study.particles = static_cast<std::size_t>(h.args().i64("particles"));
    study.level = h.args().u32("level");
    study.radius = h.args().u32("radius");
    study.seed = h.seed();
    study.trials = h.trials();
    study.far_field = false;  // Table I is the near-field study
    study.distributions.assign(dist::kAllDistributions,
                               dist::kAllDistributions + 3);
    study.processor_curves = study.particle_curves;  // full cross product
    study.proc_counts = {h.args().u32("procs")};

    // run_study validates the parameters the header prints.
    const auto result = core::run_study(study, h.sweep_options(&study));

    h.prose() << "== Table I reproduction: NFI ACD, " << study.particles
              << " particles, " << (1u << study.level) << "^2 resolution, "
              << study.proc_counts[0] << "-processor torus, r=" << study.radius
              << " ==\n\n";

    const bool overlay = h.style() == util::TableStyle::kAscii &&
                         study.particle_curves.size() == 4;
    for (std::size_t d = 0; d < study.distributions.size(); ++d) {
      h.emit(core::combination_table(result, d, /*far_field=*/false));
      if (overlay) {
        bench::paper_reference_table(study.particle_curves,
                                     bench::paper_table1(static_cast<int>(d)))
            .print(std::cout, h.style());
        std::cout << "\n";
      }
    }
    if (study.trials > 1) {
      h.prose() << "95% CI half-widths over " << study.trials << " trials:\n";
      for (std::size_t d = 0; d < study.distributions.size(); ++d) {
        util::Table ci(std::string(dist_name(study.distributions[d])) + " CI");
        std::vector<std::string> header = {"Processor Order v"};
        for (const CurveKind c : study.particle_curves)
          header.emplace_back(curve_name(c));
        ci.set_header(header);
        for (std::size_t rc = 0; rc < study.processor_curves.size(); ++rc) {
          std::vector<double> row;
          for (std::size_t pc = 0; pc < study.particle_curves.size(); ++pc) {
            row.push_back(
                result.cell_stats(d, pc, 0, rc, 0).nfi.ci95_halfwidth());
          }
          ci.add_row(std::string(curve_name(study.processor_curves[rc])),
                     std::move(row));
        }
        h.emit(ci);
      }
    }
    h.prose() << "legend: '*' marks the row minimum (paper boldface), '^' the "
                 "column minimum (paper italics).\n";
    h.attach_study(result);
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
