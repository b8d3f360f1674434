#include "core/report.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace sfc::core {
namespace {

std::vector<std::string> curve_header(const std::vector<CurveKind>& curves,
                                      const std::string& first) {
  std::vector<std::string> header = {first};
  for (const CurveKind c : curves) header.emplace_back(curve_name(c));
  return header;
}

}  // namespace

util::Table anns_table(const AnnsStudyResult& result, bool maxima) {
  const auto& cfg = result.config;
  util::Table table(maxima
                        ? "maximum stretch vs resolution"
                        : "average stretch vs resolution (radius " +
                              std::to_string(cfg.radius) + ")");
  table.set_header(curve_header(cfg.curves, "resolution"));
  for (std::size_t l = 0; l < cfg.levels.size(); ++l) {
    std::vector<double> row;
    for (std::size_t c = 0; c < cfg.curves.size(); ++c) {
      row.push_back(maxima ? result.stats[c][l].maximum
                           : result.stats[c][l].average);
    }
    const unsigned side = 1u << cfg.levels[l];
    table.add_row(std::to_string(side) + "x" + std::to_string(side),
                  std::move(row));
  }
  return table;
}

util::Table combination_table(const StudyResult& result,
                              std::size_t dist_index, bool far_field) {
  const Study& s = result.study;
  util::Table table(std::string(dist_name(s.distributions[dist_index])) +
                    " distribution (" + (far_field ? "FFI" : "NFI") + ")");
  table.set_header(curve_header(s.particle_curves, "Processor Order v"));
  table.mark_minima(true);
  for (std::size_t rc = 0; rc < s.processor_order_count(); ++rc) {
    std::vector<double> row;
    for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
      const AcdCell& cell = result.cell(dist_index, pc, 0, rc, 0);
      row.push_back(far_field ? cell.ffi_acd : cell.nfi_acd);
    }
    table.add_row(s.paired_curves()
                      ? std::string("= particle order")
                      : std::string(curve_name(s.processor_curves[rc])),
                  std::move(row));
  }
  return table;
}

util::Table topology_table(const StudyResult& result, bool far_field) {
  const Study& s = result.study;
  util::Table table(far_field ? "far-field ACD per topology"
                              : "near-field ACD per topology");
  table.set_header(curve_header(s.particle_curves, "topology"));
  table.mark_minima(true);
  for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
    std::vector<double> row;
    for (std::size_t c = 0; c < s.particle_curves.size(); ++c) {
      const AcdCell& cell = result.cell(0, c, 0, 0, ti);
      row.push_back(far_field ? cell.ffi_acd : cell.nfi_acd);
    }
    table.add_row(std::string(topology_name(s.topologies[ti])),
                  std::move(row));
  }
  return table;
}

util::Table scaling_table(const StudyResult& result, bool far_field) {
  const Study& s = result.study;
  util::Table table(far_field ? "far-field ACD vs processor count"
                              : "near-field ACD vs processor count");
  table.set_header(curve_header(s.particle_curves, "processors"));
  table.mark_minima(true);
  for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
    std::vector<double> row;
    for (std::size_t c = 0; c < s.particle_curves.size(); ++c) {
      const AcdCell& cell = result.cell(0, c, pi, 0, 0);
      row.push_back(far_field ? cell.ffi_acd : cell.nfi_acd);
    }
    table.add_row("p=" + std::to_string(s.proc_counts[pi]), std::move(row));
  }
  return table;
}

std::string study_json(const StudyResult& result) {
  const Study& s = result.study;
  std::ostringstream os;
  os << std::setprecision(17);

  auto string_array = [&os](const auto& items, auto name_of) {
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) os << ',';
      os << '"' << util::json_escape(std::string(name_of(items[i]))) << '"';
    }
    os << ']';
  };

  os << "{\"study\":{\"name\":\"" << util::json_escape(s.name) << '"'
     << ",\"particles\":" << s.particles << ",\"level\":" << s.level
     << ",\"radius\":" << s.radius << ",\"seed\":" << s.seed
     << ",\"trials\":" << s.trials
     << ",\"near_field\":" << (s.near_field ? "true" : "false")
     << ",\"far_field\":" << (s.far_field ? "true" : "false")
     << ",\"distributions\":";
  string_array(s.distributions, [](dist::DistKind k) { return dist_name(k); });
  os << ",\"particle_curves\":";
  string_array(s.particle_curves, [](CurveKind k) { return curve_name(k); });
  os << ",\"processor_curves\":";
  string_array(s.processor_curves, [](CurveKind k) { return curve_name(k); });
  os << ",\"topologies\":";
  string_array(s.topologies,
               [](topo::TopologyKind k) { return topology_name(k); });
  os << ",\"proc_counts\":[";
  for (std::size_t i = 0; i < s.proc_counts.size(); ++i) {
    if (i) os << ',';
    os << s.proc_counts[i];
  }
  os << "]},\"cells\":[";

  bool first = true;
  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
      for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
        for (std::size_t rc = 0; rc < s.processor_order_count(); ++rc) {
          const CurveKind rkind = s.paired_curves() ? s.particle_curves[pc]
                                                    : s.processor_curves[rc];
          for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
            const AcdCell& cell = result.cell(d, pc, pi, rc, ti);
            const AcdCellStats& stats = result.cell_stats(d, pc, pi, rc, ti);
            if (!first) os << ',';
            first = false;
            os << "{\"distribution\":\"" << dist_name(s.distributions[d])
               << "\",\"particle_curve\":\""
               << curve_name(s.particle_curves[pc]) << "\",\"procs\":"
               << s.proc_counts[pi] << ",\"processor_curve\":\""
               << curve_name(rkind) << "\",\"topology\":\""
               << topology_name(s.topologies[ti]) << '"';
            if (s.near_field) {
              os << ",\"nfi_acd\":" << cell.nfi_acd
                 << ",\"nfi_ci95\":" << stats.nfi.ci95_halfwidth();
            }
            if (s.far_field) {
              os << ",\"ffi_acd\":" << cell.ffi_acd
                 << ",\"ffi_ci95\":" << stats.ffi.ci95_halfwidth();
            }
            os << '}';
          }
        }
      }
    }
  }

  os << "],\"sweep\":{\"stages\":{";
  for (unsigned i = 0; i < kSweepStageCount; ++i) {
    if (i) os << ',';
    const auto stage = static_cast<SweepStage>(i);
    os << '"' << sweep_stage_name(stage) << "\":{\"hits\":"
       << result.sweep.stage(stage).hits
       << ",\"misses\":" << result.sweep.stage(stage).misses << '}';
  }
  os << "},\"hits\":" << result.sweep.total_hits()
     << ",\"misses\":" << result.sweep.total_misses()
     << ",\"bytes\":" << result.sweep.bytes
     << ",\"peak_bytes\":" << result.sweep.peak_bytes << "}}";
  return os.str();
}

void write_file(const std::string& path, const util::Table& table,
                util::TableStyle style) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  table.print(os, style);
}

}  // namespace sfc::core
