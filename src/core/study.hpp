// study.hpp — the one experiment that is not a grid sweep.
//
// Every ACD experiment in the paper (Tables I/II, Figures 6/7) is one
// core::Study value run by core::run_study (core/sweep.hpp).
// run_anns_study covers Figure 5: neighbor stretch vs resolution, which
// measures the curves alone and has no particles, partition or network.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/anns.hpp"
#include "core/sweep.hpp"

namespace sfc::core {

/// Optional progress sink: one message per finished (curve, level).
using ProgressFn = std::function<void(const std::string&)>;

// ---------------------------------------------------------------- Figure 5
struct AnnsStudyConfig {
  std::vector<unsigned> levels{1, 2, 3, 4, 5, 6, 7, 8, 9};  // 2x2 .. 512x512
  unsigned radius = 1;
  std::vector<CurveKind> curves{kPaperCurves, kPaperCurves + 4};
};

struct AnnsStudyResult {
  AnnsStudyConfig config;
  /// stats[curve][level_index].
  std::vector<std::vector<StretchStats>> stats;
};

AnnsStudyResult run_anns_study(const AnnsStudyConfig& config,
                               util::ThreadPool* pool = nullptr,
                               const ProgressFn& progress = {});

}  // namespace sfc::core
