// fig7_scaling — reproduces paper Figure 7: NFI and FFI ACD as a function
// of the processor count, per SFC (same curve used for both roles), torus
// topology, uniformly distributed particles.
//
// Paper parameters (--full): 1,000,000 particles; we sweep p over powers
// of four up to 65,536. The default is a reduced setting.
#include "core/report.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "fig7_scaling";
  spec.description = "Figure 7: ACD vs processor count per SFC";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("particles", "number of particles (0 = preset)", "0");
    args.add_option("level", "log2 resolution side (0 = preset)", "0");
    args.add_option("min-procs", "smallest processor count (0 = preset)", "0");
    args.add_option("max-procs", "largest processor count (0 = preset)", "0");
    args.add_option("radius", "near-field Chebyshev radius", "1");
    args.add_option("out-csv", "basename for plot-ready CSV export", "");
  };
  spec.run = [](bench::Harness& h) {
    core::Study study;
    study.name = "fig7_scaling";
    topo::Rank max_procs = 0;
    if (h.full()) {
      study.particles = 1000000;
      study.level = 12;
      max_procs = 65536;
    } else {
      study.particles = 150000;
      study.level = 10;
      max_procs = 16384;
    }
    if (h.args().i64("particles") > 0)
      study.particles = static_cast<std::size_t>(h.args().i64("particles"));
    if (h.args().i64("level") > 0)
      study.level = h.args().u32("level");
    topo::Rank min_procs = 16;
    if (h.args().i64("min-procs") > 0)
      min_procs = h.args().u32("min-procs");
    if (h.args().i64("max-procs") > 0)
      max_procs = h.args().u32("max-procs");
    study.radius = h.args().u32("radius");
    study.seed = h.seed();
    study.trials = h.trials();
    // Curves stay paired (processor_curves empty); the processor-count
    // axis is the sweep, on the default torus. --min-procs lets the
    // million-rank recipe (EXPERIMENTS.md) skip the small-p points: the
    // factorized fold makes p = 2^20 cheap, but each point still pays
    // the particle pipeline.
    study.proc_counts.clear();
    for (topo::Rank p = min_procs; p <= max_procs; p *= 4)
      study.proc_counts.push_back(p);

    // run_study validates the parameters the header prints.
    const auto result = core::run_study(study, h.sweep_options(&study));

    h.prose() << "== Figure 7 reproduction: " << study.particles
              << " uniform particles, " << (1u << study.level)
              << "^2 resolution, torus, r=" << study.radius << " ==\n\n";

    for (const bool far_field : {false, true}) {
      auto table = core::scaling_table(result, far_field);
      h.emit(table);
      const std::string out = h.args().str("out-csv");
      if (!out.empty()) {
        core::write_file(out + (far_field ? ".ffi.csv" : ".nfi.csv"), table);
      }
    }

    h.prose() << "expected shape (paper Fig. 7): ACD grows with p for every "
                 "curve; Hilbert is best throughout,\nGray and Z are roughly "
                 "equivalent, and row-major is far worse (it is clipped from "
                 "the paper's plots).\n";
    h.attach_study(result);
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
