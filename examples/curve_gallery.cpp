// curve_gallery — terminal renderings of the paper's illustration figures:
//   * Figure 1: the traversal of each space-filling curve,
//   * Figure 2: the three input distributions as density maps,
//   * Figure 3: the rank each curve assigns to a sampled particle set.
//
// Run: ./curve_gallery [--level 3] [--distributions] [--order]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "distribution/distribution.hpp"
#include "sfc/curve.hpp"
#include "util/cli.hpp"

namespace {

using namespace sfc;

/// Figure-1 style: draw the curve's path through a 2^level grid using
/// box-drawing strokes between consecutive (adjacent) positions. Curves
/// with jumps (Z, Gray, row-major) show broken strokes at the jumps, which
/// is exactly what their discontinuities look like in the paper's figure.
void render_path(const Curve<2>& curve, unsigned level) {
  const std::uint32_t side = 1u << level;
  const std::uint32_t w = 2 * side - 1;
  std::vector<std::string> canvas(w, std::string(w, ' '));

  auto plot = [&](std::uint32_t cx, std::uint32_t cy, char ch) {
    // Flip y so larger y prints higher (math orientation).
    canvas[w - 1 - cy][cx] = ch;
  };

  Point2 prev = curve.point(0, level);
  plot(2 * prev[0], 2 * prev[1], 'o');  // entry point
  for (std::uint64_t i = 1; i < grid_size<2>(level); ++i) {
    const Point2 cur = curve.point(i, level);
    plot(2 * cur[0], 2 * cur[1], '+');
    if (manhattan(prev, cur) == 1) {
      const std::uint32_t mx = prev[0] + cur[0];
      const std::uint32_t my = prev[1] + cur[1];
      plot(mx, my, prev[1] == cur[1] ? '-' : '|');
    }
    prev = cur;
  }
  for (const auto& row : canvas) std::cout << "  " << row << "\n";
}

/// Figure-3 style: print the rank each point receives.
void render_order(const Curve<2>& curve, unsigned level) {
  const std::uint32_t side = 1u << level;
  for (std::uint32_t row = 0; row < side; ++row) {
    const std::uint32_t y = side - 1 - row;
    std::cout << "  ";
    for (std::uint32_t x = 0; x < side; ++x) {
      std::printf("%4llu",
                  static_cast<unsigned long long>(
                      curve.index(make_point(x, y), level)));
    }
    std::cout << "\n";
  }
}

/// Figure-2 style: density map of a sampled distribution, binned to
/// 48x24 character cells.
void render_distribution(dist::DistKind kind) {
  dist::SampleConfig cfg;
  cfg.count = 60000;
  cfg.level = 9;
  cfg.seed = 99;
  const auto particles = dist::sample_particles<2>(kind, cfg);

  constexpr int kW = 48, kH = 24;
  std::vector<std::vector<int>> bins(kH, std::vector<int>(kW, 0));
  const double side = 512.0;
  for (const auto& p : particles) {
    const auto bx = static_cast<std::size_t>(p[0] / side * kW);
    const auto by = static_cast<std::size_t>(p[1] / side * kH);
    ++bins[kH - 1 - by][bx];
  }
  int max_bin = 1;
  for (const auto& row : bins) {
    for (const int b : row) max_bin = std::max(max_bin, b);
  }
  static const char kShades[] = " .:-=+*#%@";
  for (const auto& row : bins) {
    std::cout << "  ";
    for (const int b : row) {
      const int s = b == 0 ? 0 : 1 + b * 8 / max_bin;
      std::cout << kShades[std::min(s, 9)];
    }
    std::cout << "\n";
  }
}

}  // namespace

static int run_example(int argc, char** argv) {
  util::ArgParser args("curve_gallery",
                       "ASCII renderings of paper Figures 1-3");
  args.add_option("level", "log2 grid side for the curve drawings", "3");
  args.add_flag("distributions", "only show the Figure 2 density maps");
  args.add_flag("order", "only show the Figure 3 rank grids");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  const auto level = args.u32("level");
  const bool only_dist = args.flag("distributions");
  const bool only_order = args.flag("order");

  if (!only_dist) {
    std::cout << "== Figure 1: space-filling curve traversals ("
              << (1u << level) << "x" << (1u << level) << ") ==\n";
    for (const CurveKind kind : kAllCurves) {
      const auto curve = make_curve<2>(kind);
      std::cout << "\n--- " << curve->name() << " ---\n";
      if (only_order) {
        render_order(*curve, level);
      } else {
        render_path(*curve, level);
      }
    }
    if (!only_order) {
      std::cout << "\n== Figure 3: ranks assigned by each curve ("
                << (1u << 2) << "x" << (1u << 2) << ") ==\n";
      for (const CurveKind kind : kPaperCurves) {
        const auto curve = make_curve<2>(kind);
        std::cout << "\n--- " << curve->name() << " ---\n";
        render_order(*curve, 2);
      }
    }
  }

  if (!only_order) {
    std::cout << "\n== Figure 2: input distributions (60k samples, 512x512 "
                 "grid) ==\n";
    for (const dist::DistKind kind : dist::kAllDistributions) {
      std::cout << "\n--- " << dist_name(kind) << " ---\n";
      render_distribution(kind);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return sfc::util::run_main(argc, argv, run_example);
}
