// ext_dynamics — the paper's Section VI-A claim, tested dynamically:
// "since the relative performance of the curves is unchanged, there is no
// incentive to shift the ordering of particles between FMM iterations to
// reflect the dynamically changing particle distribution profile."
//
// A fraction of the particles drifts one Chebyshev step per iteration and
// three re-ordering policies are compared over the trajectory:
//   * frozen      — keep the chunk assignment computed from the initial
//     ordering (no data movement between iterations); maintained by the
//     incremental DynamicAcd engine, O(moved particles) per step;
//   * reordered   — re-sort and re-chunk every iteration (perfect
//     ordering, but in practice an all-to-all shuffle the ACD metric
//     does not price);
//   * incremental — the advisor policy: stay frozen until the displaced
//     fraction crosses --threshold, then re-sort once (the "how often
//     must you re-order?" answer).
// A second pass times the incremental timestep against a full recompute
// of the same frozen configuration; the median speedup is attached to
// the JSON document ("dynamics") for the scripts/bench_to_json.py gate.
#include <algorithm>
#include <chrono>
#include <sstream>

#include "core/dynamic_acd.hpp"
#include "harness.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfc;

  bench::HarnessSpec spec;
  spec.name = "ext_dynamics";
  spec.description = "ACD drift across simulated FMM iterations";
  spec.add_options = [](util::ArgParser& args) {
    args.add_option("particles", "number of particles (0 = preset)", "0");
    args.add_option("level", "log2 resolution side (0 = preset)", "0");
    args.add_option("procs", "processor count (0 = preset)", "0");
    args.add_option("steps", "drift iterations to simulate", "16");
    args.add_option("radius", "near-field Chebyshev radius", "1");
    args.add_option("curve", "space-filling curve (both roles)", "hilbert");
    args.add_option("topology", "interconnect topology", "torus");
    args.add_option("dist", "particle distribution", "normal");
    args.add_option("move-frac",
                    "fraction of particles attempting a step per iteration",
                    "0.05");
    args.add_option("threshold",
                    "displaced fraction that triggers the advisor re-order",
                    "0.25");
  };
  spec.run = [](bench::Harness& h) {
    core::DynamicsStudy study;
    study.name = "ext_dynamics";
    if (h.full()) {
      study.particles = 250000;
      study.level = 10;  // 1024 x 1024
      study.procs = 4096;
    } else {
      study.particles = 20000;
      study.level = 9;  // 512 x 512
      study.procs = 256;
    }
    if (h.args().i64("particles") > 0)
      study.particles = static_cast<std::size_t>(h.args().i64("particles"));
    if (h.args().i64("level") > 0)
      study.level = h.args().u32("level");
    if (h.args().i64("procs") > 0)
      study.procs = h.args().u32("procs");
    study.steps = h.args().u32("steps");
    study.radius = h.args().u32("radius");
    study.seed = h.seed();
    study.move_fraction = h.args().f64("move-frac");
    study.repartition_threshold = h.args().f64("threshold");

    const auto curve = parse_curve(h.args().str("curve"));
    const auto topology = topo::parse_topology(h.args().str("topology"));
    const auto distribution = dist::parse_dist(h.args().str("dist"));
    if (!curve || !topology || !distribution) {
      std::cerr << "error: unknown "
                << (!curve ? "--curve" : !topology ? "--topology" : "--dist")
                << " value\n";
      return 1;
    }
    study.curve = *curve;
    study.topology = *topology;
    study.distribution = *distribution;

    h.prose() << "== Dynamics: " << study.particles << " "
              << dist::dist_name(study.distribution) << " particles, "
              << (1u << study.level) << "^2 resolution, p=" << study.procs
              << " " << topo::topology_name(study.topology) << ", "
              << curve_name(study.curve) << " both roles, " << study.steps
              << " drift steps at move fraction " << study.move_fraction
              << " ==\n\n";

    const core::DynamicsResult result = core::run_dynamics(study);

    util::Table table(
        "NFI ACD per iteration: frozen vs re-sorted vs advisor chunking");
    table.set_header({"iteration", "moves", "frozen", "reordered", "penalty%",
                      "incremental", "displaced%", "reorders"});
    for (std::size_t t = 0; t < result.steps.size(); ++t) {
      const core::DynamicsStepResult& r = result.steps[t];
      const double frozen = r.frozen_nfi.acd();
      const double reordered = r.reorder_nfi.acd();
      const double penalty =
          reordered == 0.0 ? 0.0 : (frozen / reordered - 1.0) * 100.0;
      table.add_row("t=" + std::to_string(t + 1),
                    {static_cast<double>(r.moves), frozen, reordered, penalty,
                     r.lazy_nfi.acd(), r.frozen_displaced * 100.0,
                     static_cast<double>(r.lazy_repartitions)});
      if (h.args().flag("progress"))
        std::cerr << "  .. t=" << t + 1 << " done\n";
    }
    h.emit(table);

    // The advisor's answer: how often did the threshold policy actually
    // have to re-order?
    const std::size_t reorders =
        result.steps.empty() ? 0 : result.steps.back().lazy_repartitions;
    std::ostringstream advisor;
    if (reorders == 0) {
      advisor << "never in " << study.steps
              << " steps (displaced fraction peaked at "
              << (result.steps.empty()
                      ? 0.0
                      : result.steps.back().frozen_displaced * 100.0)
              << "% < threshold " << study.repartition_threshold * 100.0
              << "%)";
    } else {
      advisor << "every ~" << (study.steps + reorders - 1) / reorders
              << " steps (" << reorders << " re-orders in " << study.steps
              << ")";
    }

    // Timing pass: replay the same frozen trajectory, timing the
    // incremental timestep (move + fold) against a full recompute of the
    // identical configuration. Equality of the two is asserted along the
    // way — the bench doubles as an end-to-end check of the delta path.
    const auto curve_impl = make_curve<2>(study.curve);
    const auto net = topo::make_topology<2>(study.topology, study.procs,
                                            curve_impl.get());
    dist::SampleConfig cfg;
    cfg.count = study.particles;
    cfg.level = study.level;
    cfg.seed = study.seed;
    core::DynamicAcd<2>::Options dyn_opts;
    dyn_opts.radius = study.radius;
    dyn_opts.norm = study.norm;
    dyn_opts.repartition_threshold = 2.0;  // frozen: never re-partition
    core::DynamicAcd<2> dyn(
        dist::sample_particles<2>(study.distribution, cfg), study.level,
        *curve_impl, study.procs, dyn_opts);

    std::vector<double> speedups;
    speedups.reserve(study.steps);
    for (unsigned s = 0; s < study.steps; ++s) {
      const auto moves = core::drift_moves<2>(
          dyn.particles(), study.level, study.seed, s, study.move_fraction);
      const double t0 = now_seconds();
      dyn.move_particles(moves);
      const core::CommTotals inc_nfi = dyn.nfi(*net);
      const fmm::FfiTotals inc_ffi = dyn.ffi(*net);
      const double t1 = now_seconds();
      const std::vector<Point2>& cur = dyn.particles();
      const fmm::OccupancyGrid<2> grid(cur, study.level);
      const fmm::CellTree<2> tree(cur, study.level);
      const fmm::Partition part(cur.size(), study.procs);
      const core::CommTotals ref_nfi = fmm::nfi_totals<2>(
          cur, grid, part, *net, study.radius, study.norm);
      const fmm::FfiTotals ref_ffi = fmm::ffi_totals<2>(tree, part, *net);
      const double t2 = now_seconds();
      if (inc_nfi != ref_nfi || inc_ffi.total() != ref_ffi.total()) {
        std::cerr << "error: incremental totals diverged from the full "
                     "recompute at step "
                  << s + 1 << "\n";
        return 1;
      }
      if (t1 > t0) speedups.push_back((t2 - t1) / (t1 - t0));
    }
    std::sort(speedups.begin(), speedups.end());
    const double speedup_p50 =
        speedups.empty() ? 0.0 : speedups[speedups.size() / 2];

    std::ostringstream dyn_json;
    dyn_json.precision(17);
    dyn_json << "{\"speedup_p50\":" << speedup_p50
             << ",\"move_fraction\":" << study.move_fraction
             << ",\"steps\":" << study.steps
             << ",\"advisor_reorders\":" << reorders << "}";
    h.attach_json("dynamics", dyn_json.str());

    h.prose()
        << "advisor: re-order " << advisor.str() << "\n"
        << "incremental timestep vs full recompute: median speedup "
        << speedup_p50 << "x at move fraction " << study.move_fraction
        << "\n\nreading guide: 'penalty' is how much ACD the frozen "
           "assignment loses to re-sorting the drifted\nconfiguration. "
           "Two findings: (1) the 'reordered' column is flat — the curve "
           "ordering stays equally\ngood as the distribution evolves, "
           "which is the paper's Section VI-A point: no incentive to "
           "switch SFCs\nbetween iterations; (2) the frozen *assignment* "
           "does go stale (the penalty grows with drift), so real\ncodes "
           "re-chunk periodically — the 'incremental' column shows the "
           "threshold policy doing exactly that,\nand the advisor line "
           "above turns its re-order count into a cadence.\n";
    return 0;
  };
  return bench::run_harness(argc, argv, spec);
}
