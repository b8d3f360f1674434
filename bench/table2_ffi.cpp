// table2_ffi — reproduces paper Table II: ACD of every {particle-order,
// processor-order} SFC pairing under the far-field interaction model
// (interpolation + anterpolation + interaction lists).
//
// Paper parameters (the default): 250,000 particles on a 1024x1024 spatial
// resolution, 65,536 processors on a torus.
#include "bench_common.hpp"
#include "harness.hpp"
#include "paper_reference.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "table2_ffi";
  spec.description = "Table II: particle/processor SFC pairings, FFI ACD";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("particles", "number of particles", "250000");
    args.add_option("level", "log2 of the spatial resolution side", "10");
    args.add_option("procs", "processor count (must be 4^k)", "65536");
  };
  spec.run = [](bench::Harness& h) {
    core::Study study;
    study.name = "table2_ffi";
    study.particles = static_cast<std::size_t>(h.args().i64("particles"));
    study.level = h.args().u32("level");
    study.seed = h.seed();
    study.trials = h.trials();
    study.near_field = false;  // Table II is the far-field study
    study.distributions.assign(dist::kAllDistributions,
                               dist::kAllDistributions + 3);
    study.processor_curves = study.particle_curves;  // full cross product
    study.proc_counts = {h.args().u32("procs")};

    // run_study validates the parameters the header prints.
    const auto result = core::run_study(study, h.sweep_options(&study));

    h.prose() << "== Table II reproduction: FFI ACD, " << study.particles
              << " particles, " << (1u << study.level) << "^2 resolution, "
              << study.proc_counts[0] << "-processor torus ==\n\n";

    const bool overlay = h.style() == util::TableStyle::kAscii &&
                         study.particle_curves.size() == 4;
    for (std::size_t d = 0; d < study.distributions.size(); ++d) {
      h.emit(core::combination_table(result, d, /*far_field=*/true));
      if (overlay) {
        bench::paper_reference_table(study.particle_curves,
                                     bench::paper_table2(static_cast<int>(d)))
            .print(std::cout, h.style());
        std::cout << "\n";
      }
    }
    h.prose() << "legend: '*' marks the row minimum (paper boldface), '^' the "
                 "column minimum (paper italics).\n";
    h.attach_study(result);
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
