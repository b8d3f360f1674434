#include "topology/factory.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "topology/grid.hpp"
#include "topology/hypercube.hpp"
#include "topology/linear.hpp"
#include "topology/tree.hpp"
#include "util/bits.hpp"

namespace sfc::topo {

std::string_view topology_name(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kBus:
      return "Bus";
    case TopologyKind::kRing:
      return "Ring";
    case TopologyKind::kMesh:
      return "Mesh";
    case TopologyKind::kTorus:
      return "Torus";
    case TopologyKind::kQuadtree:
      return "Quadtree";
    case TopologyKind::kHypercube:
      return "Hypercube";
  }
  return "?";
}

std::optional<TopologyKind> parse_topology(std::string_view name) noexcept {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "bus" || lower == "path" || lower == "linear")
    return TopologyKind::kBus;
  if (lower == "ring") return TopologyKind::kRing;
  if (lower == "mesh" || lower == "grid") return TopologyKind::kMesh;
  if (lower == "torus") return TopologyKind::kTorus;
  if (lower == "quadtree" || lower == "tree" || lower == "octree")
    return TopologyKind::kQuadtree;
  if (lower == "hypercube" || lower == "cube") return TopologyKind::kHypercube;
  return std::nullopt;
}

template <int D>
std::unique_ptr<Topology> make_topology(TopologyKind kind, Rank p,
                                        const Curve<D>* ranking) {
  if (p == 0) throw std::invalid_argument("topology needs >= 1 processor");
  switch (kind) {
    case TopologyKind::kBus:
      return std::make_unique<BusTopology>(p);
    case TopologyKind::kRing:
      return std::make_unique<RingTopology>(p);
    case TopologyKind::kMesh:
    case TopologyKind::kTorus: {
      if (!util::is_pow2(p) || util::ilog2(p) % static_cast<unsigned>(D) != 0) {
        throw std::invalid_argument(
            "mesh/torus size must be a D-th power of a power of two");
      }
      const unsigned level = util::ilog2(p) / static_cast<unsigned>(D);
      if (ranking == nullptr) {
        throw std::invalid_argument(
            "mesh/torus require a processor-order SFC");
      }
      if (kind == TopologyKind::kMesh) {
        return std::make_unique<MeshTopology<D>>(level, *ranking);
      }
      return std::make_unique<TorusTopology<D>>(level, *ranking);
    }
    case TopologyKind::kQuadtree:
      return std::make_unique<TreeTopology>(p, 1u << D);
    case TopologyKind::kHypercube:
      return std::make_unique<HypercubeTopology>(p);
  }
  throw std::invalid_argument("unknown topology kind");
}

template std::unique_ptr<Topology> make_topology<2>(TopologyKind, Rank,
                                                    const Curve<2>*);
template std::unique_ptr<Topology> make_topology<3>(TopologyKind, Rank,
                                                    const Curve<3>*);

}  // namespace sfc::topo
