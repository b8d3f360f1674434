// fig6_topologies — reproduces paper Figure 6: NFI and FFI ACD across the
// six network topologies, using the same SFC for particle and processor
// ordering (24 sub-cases).
//
// Paper parameters (--full): 1,000,000 uniformly distributed particles on
// a 4096x4096 resolution, radius 4. The default is a reduced setting that
// finishes in well under a minute on one core; the qualitative ordering is
// identical. The paper omits bus/ring (and row-major NFI) from its plot
// because the values dwarf the rest — we print everything.
#include "core/report.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "fig6_topologies";
  spec.description = "Figure 6: ACD per topology per SFC";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("particles", "number of particles (0 = preset)", "0");
    args.add_option("level", "log2 resolution side (0 = preset)", "0");
    args.add_option("procs", "processor count (0 = preset)", "0");
    args.add_option("radius", "near-field Chebyshev radius (0 = preset)", "0");
    args.add_option("out-csv", "basename for plot-ready CSV export", "");
  };
  spec.run = [](bench::Harness& h) {
    core::Study study;
    study.name = "fig6_topologies";
    topo::Rank procs = 0;
    if (h.full()) {
      study.particles = 1000000;
      study.level = 12;  // 4096 x 4096
      procs = 65536;
      study.radius = 4;
    } else {
      study.particles = 150000;
      study.level = 10;  // 1024 x 1024
      procs = 4096;
      study.radius = 2;
    }
    if (h.args().i64("particles") > 0)
      study.particles = static_cast<std::size_t>(h.args().i64("particles"));
    if (h.args().i64("level") > 0)
      study.level = h.args().u32("level");
    if (h.args().i64("procs") > 0)
      procs = h.args().u32("procs");
    if (h.args().i64("radius") > 0)
      study.radius = h.args().u32("radius");
    study.seed = h.seed();
    study.trials = h.trials();
    study.proc_counts = {procs};
    // Curves stay paired (processor_curves empty); the topology axis is
    // the sweep.
    study.topologies.assign(topo::kAllTopologies, topo::kAllTopologies + 6);

    // run_study validates the parameters the header prints.
    const auto result = core::run_study(study, h.sweep_options(&study));

    h.prose() << "== Figure 6 reproduction: " << study.particles
              << " uniform particles, " << (1u << study.level)
              << "^2 resolution, p=" << procs << ", r=" << study.radius
              << " ==\n\n";

    for (const bool far_field : {false, true}) {
      auto table = core::topology_table(result, far_field);
      h.emit(table);
      const std::string out = h.args().str("out-csv");
      if (!out.empty()) {
        core::write_file(out + (far_field ? ".ffi.csv" : ".nfi.csv"), table);
      }
    }

    h.prose()
        << "expected shape (paper Fig. 6): for NFI hypercube < torus ~ mesh "
           "< quadtree << ring < bus;\nfor FFI the quadtree edges out the "
           "hypercube; mesh ~ torus for the recursive SFCs but torus << mesh "
           "for row-major;\nHilbert is the best curve on every topology.\n";
    h.attach_study(result);
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
