#include "core/study.hpp"

#include <sstream>

namespace sfc::core {

AnnsStudyResult run_anns_study(const AnnsStudyConfig& config,
                               util::ThreadPool* pool,
                               const ProgressFn& progress) {
  const std::size_t nc = config.curves.size();
  const std::size_t nl = config.levels.size();

  AnnsStudyResult result;
  result.config = config;
  result.stats.assign(nc, std::vector<StretchStats>(nl));

  for (std::size_t c = 0; c < nc; ++c) {
    const auto curve = make_curve<2>(config.curves[c]);
    for (std::size_t l = 0; l < nl; ++l) {
      result.stats[c][l] =
          neighbor_stretch(*curve, config.levels[l], config.radius, pool);
      if (!progress) continue;
      std::ostringstream msg;
      msg << curve_name(config.curves[c]) << " @ level " << config.levels[l]
          << " done";
      progress(msg.str());
    }
  }
  return result;
}

}  // namespace sfc::core
