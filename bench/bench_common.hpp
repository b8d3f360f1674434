// bench_common.hpp — shared plumbing for the experiment binaries: the
// common CLI flags, table style and error path of the binaries that do
// not use run_harness, and the paper's reported 4x4 matrices as an
// overlay table in the paper's layout (particle order across, processor
// order down, row/column minima marked like the paper's
// boldface/italics).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/study.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace sfc::bench {

/// Register the options every harness shares.
inline void add_common_options(util::ArgParser& args) {
  args.add_flag("csv", "emit CSV instead of ASCII tables");
  args.add_flag("progress", "report per-cell progress on stderr");
  args.add_option("seed", "master RNG seed", "1");
}

/// Standard prologue: parse or die; handle --help. Exits the process with
/// status 1 on a malformed command line; returns false (caller exits 0)
/// when --help was printed.
inline bool parse_or_usage(util::ArgParser& args, int argc,
                           const char* const* argv) {
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n\n" << args.usage();
    std::exit(1);
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return false;
  }
  return true;
}

using util::run_main;

inline util::TableStyle table_style(const util::ArgParser& args) {
  return args.flag("csv") ? util::TableStyle::kCsv
                          : util::TableStyle::kAscii;
}

/// The paper's reported 4x4 matrix as a side-by-side comparison table.
/// Only valid for the canonical 4-curve grid; callers must check
/// curves.size() == 4 before indexing paper_ref with their curve list.
inline util::Table paper_reference_table(const std::vector<CurveKind>& curves,
                                         const double paper_ref[4][4]) {
  util::Table ref("paper reported (for shape comparison)");
  std::vector<std::string> header = {"Processor Order v"};
  for (const CurveKind c : curves) header.emplace_back(curve_name(c));
  ref.set_header(header);
  ref.mark_minima(true);
  for (std::size_t rc = 0; rc < 4; ++rc) {
    ref.add_row(std::string(curve_name(curves[rc])),
                {paper_ref[rc][0], paper_ref[rc][1], paper_ref[rc][2],
                 paper_ref[rc][3]});
  }
  return ref;
}

}  // namespace sfc::bench
