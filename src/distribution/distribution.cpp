#include "distribution/distribution.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <string>
#include <unordered_set>

#include "fmm/occupancy.hpp"

namespace sfc::dist {

std::string_view dist_name(DistKind kind) noexcept {
  switch (kind) {
    case DistKind::kUniform:
      return "Uniform";
    case DistKind::kNormal:
      return "Normal";
    case DistKind::kExponential:
      return "Exponential";
    case DistKind::kClusters:
      return "Clusters";
    case DistKind::kPlummer:
      return "Plummer";
    case DistKind::kBoundary:
      return "Boundary";
    case DistKind::kSkewed:
      return "Skewed";
  }
  return "?";
}

std::optional<DistKind> parse_dist(std::string_view name) noexcept {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "uniform" || lower == "u") return DistKind::kUniform;
  if (lower == "normal" || lower == "gaussian" || lower == "n")
    return DistKind::kNormal;
  if (lower == "exponential" || lower == "exp" || lower == "e")
    return DistKind::kExponential;
  if (lower == "clusters" || lower == "blobs" || lower == "mixture")
    return DistKind::kClusters;
  if (lower == "plummer") return DistKind::kPlummer;
  if (lower == "boundary" || lower == "wall" || lower == "b")
    return DistKind::kBoundary;
  if (lower == "skewed" || lower == "skew" || lower == "powerlaw")
    return DistKind::kSkewed;
  return std::nullopt;
}

namespace {

/// Seeded state shared by every candidate draw (the blob centers of the
/// mixture distribution are fixed per sample run).
template <int D>
struct DrawContext {
  std::vector<std::array<double, static_cast<std::size_t>(D)>> centers;
};

template <int D>
DrawContext<D> make_context(DistKind kind, double side,
                            util::Xoshiro256pp& rng,
                            const SampleConfig& cfg) {
  DrawContext<D> ctx;
  if (kind == DistKind::kClusters) {
    ctx.centers.resize(std::max(1u, cfg.cluster_count));
    for (auto& center : ctx.centers) {
      for (int i = 0; i < D; ++i) {
        // Keep blob centers away from the boundary so most of each blob
        // lands on the grid.
        center[static_cast<std::size_t>(i)] =
            side * (0.15 + 0.7 * util::uniform01(rng));
      }
    }
  }
  return ctx;
}

/// Draw one candidate cell (may be off-grid for the unbounded
/// distributions; the caller rejects those).
template <int D>
bool draw_cell(DistKind kind, double side, util::Xoshiro256pp& rng,
               util::NormalSampler& normal, const SampleConfig& cfg,
               const DrawContext<D>& ctx, Point<D>& out) {
  double v[4] = {};  // D <= 4

  switch (kind) {
    case DistKind::kUniform:
      for (int i = 0; i < D; ++i) v[i] = util::uniform01(rng) * side;
      break;
    case DistKind::kNormal:
      for (int i = 0; i < D; ++i) {
        v[i] = side * 0.5 + cfg.normal_sigma_frac * side * normal(rng);
      }
      break;
    case DistKind::kExponential:
      for (int i = 0; i < D; ++i) {
        v[i] = util::exponential(rng, cfg.exp_mean_frac * side);
      }
      break;
    case DistKind::kClusters: {
      const auto& center =
          ctx.centers[util::bounded_u64(rng, ctx.centers.size())];
      for (int i = 0; i < D; ++i) {
        v[i] = center[static_cast<std::size_t>(i)] +
               cfg.cluster_sigma_frac * side * normal(rng);
      }
      break;
    }
    case DistKind::kPlummer: {
      // Sample a 3-D Plummer sphere (inverse-CDF radius, isotropic
      // direction) and keep the first D coordinates — the projection onto
      // the simulation plane for D = 2.
      double u = util::uniform01(rng);
      while (u <= 0.0) u = util::uniform01(rng);
      const double a = cfg.plummer_radius_frac * side;
      const double r = a / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
      const double z = 2.0 * util::uniform01(rng) - 1.0;
      const double phi = 2.0 * 3.14159265358979323846 * util::uniform01(rng);
      const double s = std::sqrt(1.0 - z * z);
      const double dir[3] = {s * std::cos(phi), s * std::sin(phi), z};
      for (int i = 0; i < D; ++i) {
        v[i] = side * 0.5 + r * dir[i < 3 ? i : 0];
      }
      break;
    }
    case DistKind::kBoundary: {
      // A random face of the domain, uniform along it, exponential depth
      // into the interior — a boundary-layer input. 2·D faces; the face
      // index picks the axis and which side of it.
      const std::uint64_t face =
          util::bounded_u64(rng, 2ull * static_cast<std::uint64_t>(D));
      const int axis = static_cast<int>(face >> 1);
      const bool high = (face & 1) != 0;
      for (int i = 0; i < D; ++i) v[i] = util::uniform01(rng) * side;
      const double depth =
          util::exponential(rng, cfg.boundary_depth_frac * side);
      v[axis] = high ? side - depth : depth;
      break;
    }
    case DistKind::kSkewed:
      // Independent power law per axis: side · u^k concentrates the mass
      // near the low corner with density ∝ x^(1/k - 1) — much harder
      // skew than the exponential for the default k = 3.
      for (int i = 0; i < D; ++i) {
        v[i] = side * std::pow(util::uniform01(rng), cfg.skew_exponent);
      }
      break;
  }

  for (int i = 0; i < D; ++i) {
    if (v[i] < 0.0 || v[i] >= side) return false;
    out[i] = static_cast<std::uint32_t>(v[i]);
  }
  return true;
}

/// Occupied finest-level cells: the membership test behind the samplers'
/// one-particle-per-cell rule. A dense bitmap (one bit per cell) while
/// the key space is within OccupancyGrid's dense cap and the bitmap is
/// not much bigger than the hash set it stands in for; a hash set beyond.
/// A std::unordered_set<std::uint64_t> holds about 48 bytes per element
/// (a 16-byte node rounded up by malloc, plus ~2 bucket pointers at the
/// reserve below), so the bitmap is taken up to kBitsPerElement = 1024
/// bits (128 bytes, under 3x the set) per expected element, and on any
/// grid of at most kAlwaysDenseCells cells (an 8 KiB bitmap). Only
/// membership is decided here, so the samples do not depend on the pick.
template <int D>
class OccupiedCells {
 public:
  static constexpr std::uint64_t kBitsPerElement = 1024;
  static constexpr std::uint64_t kAlwaysDenseCells = std::uint64_t{1} << 16;

  OccupiedCells(unsigned level, std::size_t elements) {
    const std::uint64_t cells = grid_size<D>(level);
    if (static_cast<unsigned>(D) * level <= fmm::OccupancyGrid<D>::kDenseBits &&
        (cells <= kAlwaysDenseCells || cells / kBitsPerElement <= elements)) {
      bits_.assign(static_cast<std::size_t>((cells + 63) / 64), 0);
    } else {
      set_.reserve(elements * 2);
    }
  }

  /// Mark `key` occupied; false when it already was.
  bool insert(std::uint64_t key) {
    if (bits_.empty()) return set_.insert(key).second;
    std::uint64_t& word = bits_[static_cast<std::size_t>(key >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (key & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  void erase(std::uint64_t key) {
    if (bits_.empty()) {
      set_.erase(key);
    } else {
      bits_[static_cast<std::size_t>(key >> 6)] &=
          ~(std::uint64_t{1} << (key & 63));
    }
  }

 private:
  std::vector<std::uint64_t> bits_;  // dense mode: one bit per cell
  std::unordered_set<std::uint64_t> set_;
};

}  // namespace

template <int D>
std::vector<Point<D>> sample_particles(DistKind kind, const SampleConfig& cfg) {
  if (cfg.level > max_level<D>()) {
    throw std::runtime_error("sample_particles: level too large");
  }
  const std::uint64_t cells = grid_size<D>(cfg.level);
  if (cfg.count > cells) {
    throw std::runtime_error(
        "sample_particles: more particles than finest-resolution cells");
  }

  util::Xoshiro256pp rng(util::substream_seed(cfg.seed, 0));
  util::NormalSampler normal;
  const double side = static_cast<double>(1ull << cfg.level);
  const DrawContext<D> ctx = make_context<D>(kind, side, rng, cfg);

  std::vector<Point<D>> particles;
  particles.reserve(cfg.count);
  OccupiedCells<D> occupied(cfg.level, cfg.count);

  // Generous rejection budget: the default parameters keep the acceptance
  // rate well above 1/3 even at the paper's densest setting (250k normal
  // particles on a 1024^2 grid).
  const std::uint64_t max_attempts = 200ull * cfg.count + 100000ull;
  std::uint64_t attempts = 0;
  while (particles.size() < cfg.count) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "sample_particles: rejection sampling did not converge; "
          "lower the density or widen the distribution");
    }
    Point<D> p{};
    if (!draw_cell<D>(kind, side, rng, normal, cfg, ctx, p)) continue;
    if (occupied.insert(pack(p, cfg.level))) {
      particles.push_back(p);
    }
  }
  return particles;
}

template std::vector<Point<2>> sample_particles<2>(DistKind,
                                                   const SampleConfig&);
template std::vector<Point<3>> sample_particles<3>(DistKind,
                                                   const SampleConfig&);

template <int D>
void drift_particles(std::vector<Point<D>>& particles, unsigned level,
                     std::uint64_t seed, std::uint64_t step) {
  util::Xoshiro256pp rng(
      util::substream_seed(seed, 0x5EED0000ull + step));
  OccupiedCells<D> occupied(level, particles.size());
  for (const auto& p : particles) occupied.insert(pack(p, level));

  const std::int64_t side = 1ll << level;
  for (auto& p : particles) {
    // Random offset in {-1,0,1}^D \ {0}.
    Point<D> candidate = p;
    bool zero = true;
    for (int i = 0; i < D; ++i) {
      const auto o =
          static_cast<std::int64_t>(util::bounded_u64(rng, 3)) - 1;
      const std::int64_t v = static_cast<std::int64_t>(p[i]) + o;
      if (o != 0) zero = false;
      if (v < 0 || v >= side) {
        zero = true;  // off-grid: treat as a rejected move
        break;
      }
      candidate[i] = static_cast<std::uint32_t>(v);
    }
    if (zero) continue;
    const std::uint64_t to = pack(candidate, level);
    if (!occupied.insert(to)) continue;  // destination occupied
    occupied.erase(pack(p, level));
    p = candidate;
  }
}

template void drift_particles<2>(std::vector<Point<2>>&, unsigned,
                                 std::uint64_t, std::uint64_t);
template void drift_particles<3>(std::vector<Point<3>>&, unsigned,
                                 std::uint64_t, std::uint64_t);

}  // namespace sfc::dist
