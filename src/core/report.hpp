// report.hpp — turn study results into tables and plot-ready files.
//
// The bench harnesses and the tests share these builders so the output
// layout is covered by the test suite, and `write_file` lets any harness
// dump CSV series for external plotting.
#pragma once

#include <string>

#include "core/study.hpp"
#include "util/table.hpp"

namespace sfc::core {

/// Tables I/II layout: processor order down, particle order across. A
/// paired study (Study::processor_curves empty) gives one row, in which
/// each column's processors are ranked by that column's own curve.
util::Table combination_table(const StudyResult& result,
                              std::size_t dist_index, bool far_field);

/// Figure 6 layout: one row per topology, one column per curve.
util::Table topology_table(const StudyResult& result, bool far_field);

/// Figure 7 layout: one row per processor count, one column per curve.
util::Table scaling_table(const StudyResult& result, bool far_field);

/// Machine-readable JSON document for a sweep-engine run: the study
/// description, one record per grid cell (across-trial mean ACDs plus
/// 95% CI half-widths), and the engine's artifact accounting
/// (per-stage hit/miss counters, materialized bytes, live-byte
/// high-water mark).
std::string study_json(const StudyResult& result);

/// Figure 5 layout: one row per resolution, one column per curve.
/// `maxima` selects the max-stretch (MNNS) view instead of the average.
util::Table anns_table(const AnnsStudyResult& result, bool maxima = false);

/// Write a table to a file in the given style. Throws std::runtime_error
/// if the file cannot be opened.
void write_file(const std::string& path, const util::Table& table,
                util::TableStyle style = util::TableStyle::kCsv);

}  // namespace sfc::core
