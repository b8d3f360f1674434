// fmm_acd_demo — a fully configurable single-scenario run with the
// detailed FFI breakdown the paper's model distinguishes (interpolation /
// anterpolation / interaction lists), useful for exploring parameter
// choices before committing to a full study.
//
// Example:
//   ./fmm_acd_demo --particles 100000 --level 10 --procs 16384
//       --particle-curve z --processor-curve hilbert --topology torus
//       --distribution normal --radius 2
#include <cstdio>
#include <iostream>

#include "core/acd.hpp"
#include "core/cost_model.hpp"
#include "core/histogram.hpp"
#include "util/cli.hpp"

static int run_example(int argc, char** argv) {
  using namespace sfc;

  util::ArgParser args("fmm_acd_demo",
                       "single-scenario ACD evaluation with full breakdown");
  args.add_option("particles", "number of particles", "50000");
  args.add_option("level", "log2 of the spatial resolution side", "9");
  args.add_option("procs", "processor count", "4096");
  args.add_option("particle-curve", "hilbert|z|gray|row|snake|column",
                  "hilbert");
  args.add_option("processor-curve", "hilbert|z|gray|row|snake|column",
                  "hilbert");
  args.add_option("topology", "bus|ring|mesh|torus|quadtree|hypercube",
                  "torus");
  args.add_option("distribution", "uniform|normal|exponential", "uniform");
  args.add_option("radius", "near-field Chebyshev radius", "1");
  args.add_option("seed", "master RNG seed", "1");
  args.add_flag("histogram",
                "print the hop-distance histograms (ACD is their mean)");
  args.add_flag("cost",
                "estimate communication time under the alpha-beta model");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  core::Scenario2 s;
  s.particles = static_cast<std::size_t>(args.i64("particles"));
  s.level = args.u32("level");
  s.procs = args.u32("procs");
  s.radius = args.u32("radius");
  s.seed = static_cast<std::uint64_t>(args.i64("seed"));

  const auto pc = parse_curve(args.str("particle-curve"));
  const auto rc = parse_curve(args.str("processor-curve"));
  const auto topo_kind = topo::parse_topology(args.str("topology"));
  const auto dist_kind = dist::parse_dist(args.str("distribution"));
  if (!pc || !rc || !topo_kind || !dist_kind) {
    std::cerr << "error: unrecognized curve/topology/distribution name\n";
    return 1;
  }
  s.particle_curve = *pc;
  s.processor_curve = *rc;
  s.topology = *topo_kind;
  s.distribution = *dist_kind;

  std::cout << "scenario: n=" << s.particles << ", resolution "
            << (1u << s.level) << "^2, p=" << s.procs << " "
            << topo::topology_name(s.topology) << ", particle order "
            << curve_name(s.particle_curve) << ", processor order "
            << curve_name(s.processor_curve) << ", "
            << dist_name(s.distribution) << " input, r=" << s.radius
            << "\n\n";

  const auto result = core::compute_acd<2>(s);

  const auto print_line = [](const char* name, const core::CommTotals& t) {
    std::printf("  %-22s %14llu comms %16llu hops   ACD %10.4f\n", name,
                static_cast<unsigned long long>(t.count),
                static_cast<unsigned long long>(t.hops), t.acd());
  };
  std::cout << "near-field interactions:\n";
  print_line("NFI", result.nfi);
  std::cout << "far-field interactions:\n";
  print_line("interpolation", result.ffi.interpolation);
  print_line("anterpolation", result.ffi.anterpolation);
  print_line("interaction lists", result.ffi.interaction);
  print_line("FFI total", result.ffi.total());
  std::cout << "combined:\n";
  print_line("NFI + FFI", result.nfi + result.ffi.total());

  if (args.flag("cost")) {
    const core::CostParams params;  // defaults: 1us alpha, 50ns/hop, 10GB/s
    const auto est = core::fmm_cost_estimate(result.nfi, result.ffi, params);
    std::printf(
        "\nalpha-beta cost estimate (alpha %.2fus, %.3fus/hop, %.0f MB/s, "
        "p=%u expansions):\n"
        "  NFI %.1f us   FFI %.1f us   total %.1f us per iteration\n",
        params.alpha_us, params.per_hop_us, params.bandwidth_bytes_per_us,
        params.expansion_terms, est.nfi_us, est.ffi_us, est.total_us());
  }

  if (args.flag("histogram")) {
    // Rebuild the instance explicitly to get at the communication sets.
    dist::SampleConfig sample;
    sample.count = s.particles;
    sample.level = s.level;
    sample.seed = s.seed;
    const auto particles = dist::sample_particles<2>(s.distribution, sample);
    const auto particle_curve = make_curve<2>(s.particle_curve);
    const auto processor_curve = make_curve<2>(s.processor_curve);
    const auto net = topo::make_topology<2>(s.topology, s.procs,
                                            processor_curve.get());
    const core::AcdInstance<2> instance(particles, s.level, *particle_curve);
    const fmm::Partition part(particles.size(), s.procs);

    const auto nfi_hist =
        core::nfi_histogram(instance, part, *net, s.radius);
    const auto ffi_hist = core::ffi_histogram(instance, part, *net);
    std::printf(
        "\nNFI hop distribution: local %.1f%%, p50 %llu, p99 %llu, max "
        "%llu\n%s",
        nfi_hist.local_fraction() * 100.0,
        static_cast<unsigned long long>(nfi_hist.percentile(0.5)),
        static_cast<unsigned long long>(nfi_hist.percentile(0.99)),
        static_cast<unsigned long long>(nfi_hist.max_seen()),
        nfi_hist.ascii().c_str());
    std::printf(
        "\nFFI hop distribution: local %.1f%%, p50 %llu, p99 %llu, max "
        "%llu\n%s",
        ffi_hist.local_fraction() * 100.0,
        static_cast<unsigned long long>(ffi_hist.percentile(0.5)),
        static_cast<unsigned long long>(ffi_hist.percentile(0.99)),
        static_cast<unsigned long long>(ffi_hist.max_seen()),
        ffi_hist.ascii().c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return sfc::util::run_main(argc, argv, run_example);
}
