// Report-builder tests: table shapes/labels and JSON per study, and file
// export.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

namespace sfc::core {
namespace {

/// Tables I/II design at toy scale: both curve roles swept.
Study tiny_combination() {
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 3;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kRowMajor};
  s.processor_curves = s.particle_curves;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {16};
  return s;
}

/// One numeric row as Table's JSON style renders it (full precision).
std::string json_row(const std::string& label,
                     const std::vector<double>& values) {
  std::ostringstream os;
  os << std::setprecision(17) << "[\"" << label << '"';
  for (const double v : values) os << ',' << v;
  os << ']';
  return os.str();
}

TEST(Report, CombinationTableLayout) {
  const StudyResult result = run_study(tiny_combination());
  const auto table = combination_table(result, 0, /*far_field=*/false);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("Processor Order v,Hilbert,Row-Major"),
            std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(table.title().find("Uniform"), std::string::npos);
  EXPECT_NE(table.title().find("NFI"), std::string::npos);
  EXPECT_NE(combination_table(result, 0, true).title().find("FFI"),
            std::string::npos);
  // Processor order down (rc), particle order across (pc).
  const std::string json = table.to_string(util::TableStyle::kJson);
  for (std::size_t rc = 0; rc < 2; ++rc) {
    EXPECT_NE(json.find(json_row(
                  rc == 0 ? "Hilbert" : "Row-Major",
                  {result.cell(0, 0, 0, rc, 0).nfi_acd,
                   result.cell(0, 1, 0, rc, 0).nfi_acd})),
              std::string::npos)
        << json;
  }
}

TEST(Report, PairedCombinationTableHasOneRow) {
  Study s = tiny_combination();
  s.processor_curves.clear();  // paired: each curve ranks its own cell
  const StudyResult result = run_study(s);
  const auto table = combination_table(result, 0, /*far_field=*/true);
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.to_string(util::TableStyle::kCsv)
                .find("Processor Order v,Hilbert,Row-Major"),
            std::string::npos);
  EXPECT_NE(table.to_string(util::TableStyle::kJson)
                .find(json_row("= particle order",
                               {result.cell(0, 0, 0, 0, 0).ffi_acd,
                                result.cell(0, 1, 0, 0, 0).ffi_acd})),
            std::string::npos);
  // The diagonal of the cross product is the paired study.
  const StudyResult cross = run_study(tiny_combination());
  for (std::size_t pc = 0; pc < 2; ++pc) {
    EXPECT_EQ(result.cell(0, pc, 0, 0, 0).ffi_acd,
              cross.cell(0, pc, 0, pc, 0).ffi_acd);
  }
}

TEST(Report, TopologyTableLayout) {
  // Figure 6 design: topologies swept, curves paired.
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 3;
  s.radius = 4;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert};
  s.topologies = {topo::TopologyKind::kBus, topo::TopologyKind::kTorus};
  s.proc_counts = {16};
  const StudyResult result = run_study(s);
  const auto table = topology_table(result, false);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("Bus,"), std::string::npos);
  EXPECT_NE(csv.find("Torus,"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, ScalingTableLayout) {
  // Figure 7 design: processor counts swept on a torus, curves paired.
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 3;
  s.radius = 1;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kMorton};
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {4, 16};
  const StudyResult result = run_study(s);
  const auto table = scaling_table(result, true);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("p=4,"), std::string::npos);
  EXPECT_NE(csv.find("p=16,"), std::string::npos);
}

TEST(Report, StudyJsonDescribesEveryCell) {
  const StudyResult result = run_study(tiny_combination());
  const std::string json = study_json(result);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"particle_curves\":[\"Hilbert\",\"Row-Major\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"proc_counts\":[16]"), std::string::npos);
  EXPECT_NE(json.find("\"sweep\":{\"stages\":{"), std::string::npos);
  // One record per cell, each with both models' mean and CI.
  std::size_t records = 0;
  for (std::size_t at = json.find("{\"distribution\":");
       at != std::string::npos;
       at = json.find("{\"distribution\":", at + 1)) {
    ++records;
  }
  EXPECT_EQ(records, result.cells.size());
  EXPECT_NE(json.find("\"nfi_ci95\":"), std::string::npos);
  EXPECT_NE(json.find("\"ffi_ci95\":"), std::string::npos);
}

TEST(Report, AnnsTableLayout) {
  AnnsStudyConfig cfg;
  cfg.levels = {2, 3};
  cfg.curves = {CurveKind::kHilbert, CurveKind::kMorton};
  const auto result = run_anns_study(cfg);
  const auto avg = anns_table(result, false);
  const auto max = anns_table(result, true);
  EXPECT_NE(avg.to_string(util::TableStyle::kCsv).find("4x4,"),
            std::string::npos);
  EXPECT_NE(avg.to_string(util::TableStyle::kCsv).find("8x8,"),
            std::string::npos);
  EXPECT_NE(max.title().find("maximum"), std::string::npos);
}

TEST(Report, WriteFileRoundTrips) {
  AnnsStudyConfig cfg;
  cfg.levels = {2};
  cfg.curves = {CurveKind::kGray};
  const auto table = anns_table(run_anns_study(cfg));
  const std::string path = "/tmp/sfcacd_report_test.csv";
  write_file(path, table);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), table.to_string(util::TableStyle::kCsv));
  std::remove(path.c_str());
}

TEST(Report, WriteFileToBadPathThrows) {
  util::Table table;
  EXPECT_THROW(write_file("/nonexistent-dir/x.csv", table),
               std::runtime_error);
}

}  // namespace
}  // namespace sfc::core
