#include "core/acd.hpp"

#include "util/radix_sort.hpp"

namespace sfc::core {

/// Sort particles by their position on the given curve. The keys come
/// from the batched encode; the argsort is a stable LSD radix sort, so
/// equal-key particles keep their sampling order — the same tie-break as
/// the std::stable_sort this replaced, which keeps the sorted sequence
/// (and every golden number downstream) identical across standard-library
/// implementations and across the sort swap itself.
template <int D>
std::vector<Point<D>> sort_by_curve(std::vector<Point<D>> particles,
                                    unsigned level, const Curve<D>& curve) {
  const std::vector<std::uint64_t> keys = indices_of(curve, particles, level);
  std::vector<util::KeyIndex> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    items[i] = util::KeyIndex{keys[i], static_cast<std::uint32_t>(i)};
  }
  util::radix_sort_pairs(items);
  std::vector<Point<D>> sorted;
  sorted.reserve(particles.size());
  for (const util::KeyIndex& it : items) sorted.push_back(particles[it.index]);
  return sorted;
}

template std::vector<Point<2>> sort_by_curve<2>(std::vector<Point<2>>,
                                                unsigned, const Curve<2>&);
template std::vector<Point<3>> sort_by_curve<3>(std::vector<Point<3>>,
                                                unsigned, const Curve<3>&);

template <int D>
AcdInstance<D>::AcdInstance(std::vector<Point<D>> particles, unsigned level,
                            const Curve<D>& particle_curve)
    : level_(level),
      particles_(sort_by_curve<D>(std::move(particles), level,
                                  particle_curve)),
      grid_(particles_, level),
      tree_(particles_, level) {}

template <int D>
CommTotals AcdInstance<D>::nfi(const fmm::Partition& part,
                               const topo::Topology& net, unsigned radius,
                               fmm::NeighborNorm norm) const {
  return fmm::nfi_totals<D>(particles_, grid_, part, net, radius, norm);
}

template <int D>
fmm::FfiTotals AcdInstance<D>::ffi(const fmm::Partition& part,
                                   const topo::Topology& net) const {
  return fmm::ffi_totals<D>(tree_, part, net);
}

template <int D>
AcdResult compute_acd(const Scenario<D>& scenario) {
  dist::SampleConfig sample;
  sample.count = scenario.particles;
  sample.level = scenario.level;
  sample.seed = scenario.seed;
  auto particles = dist::sample_particles<D>(scenario.distribution, sample);

  const auto particle_curve = make_curve<D>(scenario.particle_curve);
  const auto processor_curve = make_curve<D>(scenario.processor_curve);
  const auto net = topo::make_topology<D>(scenario.topology, scenario.procs,
                                          processor_curve.get());

  AcdInstance<D> instance(std::move(particles), scenario.level,
                          *particle_curve);
  const fmm::Partition part(instance.particles().size(), scenario.procs);

  AcdResult result;
  result.nfi = instance.nfi(part, *net, scenario.radius);
  result.ffi = instance.ffi(part, *net);
  return result;
}

template class AcdInstance<2>;
template class AcdInstance<3>;
template AcdResult compute_acd<2>(const Scenario<2>&);
template AcdResult compute_acd<3>(const Scenario<3>&);

}  // namespace sfc::core
