// factory.hpp — construct a topology by kind.
//
// Mesh and torus require a processor-order SFC (the paper applies SFC
// ranking only to those two topologies; the others use their natural
// labeling). The quadtree becomes an octree for D=3.
#pragma once

#include <memory>

#include "sfc/curve.hpp"
#include "topology/topology.hpp"

namespace sfc::topo {

/// Create a topology with `p` processors.
/// * kMesh/kTorus: p must equal (2^m)^D; `ranking` must be non-null and is
///   used as the processor-order SFC.
/// * kQuadtree: p must be a power of 2^D (arity = 2^D).
/// * kHypercube: p must be a power of two.
/// Throws std::invalid_argument on violations.
template <int D>
std::unique_ptr<Topology> make_topology(TopologyKind kind, Rank p,
                                        const Curve<D>* ranking = nullptr);

extern template std::unique_ptr<Topology> make_topology<2>(TopologyKind, Rank,
                                                           const Curve<2>*);
extern template std::unique_ptr<Topology> make_topology<3>(TopologyKind, Rank,
                                                           const Curve<3>*);

}  // namespace sfc::topo
