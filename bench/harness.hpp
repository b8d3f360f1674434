// harness.hpp — the single entry point for experiment binaries.
//
// Every bench registers the same flags (--full, --csv, --json, --out,
// --progress, --seed, --trials, --threads, --no-reuse, --trace,
// --metrics) exactly once, via run_harness(); the per-bench code only
// adds its own options and fills a run callback. The Harness context
// wires those flags into the sweep engine (SweepOptions), selects the
// table style, and collects every emitted table plus any attached JSON
// fragments into one structured document for --json (stdout) and --out
// FILE — the format scripts/bench_to_json.py consumes. Every document
// carries the build provenance from util/version.hpp.
//
// Observability: --trace FILE enables the obs span tracer for the run
// and writes a Chrome/Perfetto trace to FILE afterwards; --metrics
// enables the obs metrics registry and embeds its JSON snapshot in the
// output document under "metrics". The flight recorder (obs/flight.hpp)
// is on by *default* — every harness run gets the crash handler (path
// from --crash-report), a "stage_profile" section aggregating span
// durations per stage, and a background registry sampler (period from
// --sample-ms / SFCACD_OBS_SAMPLE_MS); --no-flight opts a run out, and
// --prom FILE exports the final registry in the Prometheus text format.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/version.hpp"

namespace sfc::bench {

namespace detail {
/// Discard sink for prose when stdout must stay a parseable document.
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};
}  // namespace detail

/// Per-bench context handed to HarnessSpec::run. Accessors expose the
/// parsed common flags; emit()/attach_json() feed the output document.
class Harness {
 public:
  explicit Harness(util::ArgParser& args) : args_(args), null_(&null_buffer_) {
    const long long trials = args.i64("trials");
    if (trials < 1 || trials > std::numeric_limits<unsigned>::max()) {
      throw std::invalid_argument("--trials must be between 1 and " +
                                  std::to_string(
                                      std::numeric_limits<unsigned>::max()));
    }
    if (args.i64("store-budget") < 0) {
      throw std::invalid_argument(
          "--store-budget must be 0 (the default budget) or more");
    }
    obs::Tracer::instance().set_thread_name("main");
    if (!args.str("trace").empty()) {
      obs::Tracer::instance().set_enabled(true);
    }
    if (args.flag("metrics")) obs::Registry::instance().set_enabled(true);
    if (flight()) {
      // Always-on forensics: crash handler + recorder + an initial
      // metrics snapshot, then the background sampler keeping that
      // snapshot (and the time-series rings) fresh. --sample-ms -1
      // leaves the recorder on but skips the sampler thread.
      obs::FlightRecorder::instance().install_crash_handler(
          args.str("crash-report"));
      const long long sample_ms = args.i64("sample-ms");
      const long long capacity = args.i64("sample-capacity");
      if (sample_ms >= 0) {
        obs::Sampler::instance().configure(
            sample_ms > 0 ? static_cast<std::uint64_t>(sample_ms)
                          : obs::Sampler::default_period_ms(),
            capacity > 0 ? static_cast<std::size_t>(capacity) : 0);
        obs::Sampler::instance().start();
      }
    }
    const long long threads = args.i64("threads");
    if (threads < 0) {
      throw std::invalid_argument("--threads must be 0 (all CPUs) or more");
    }
    // Capped at the CPUs this process may use: oversubscribing the
    // plan graph's workers only adds scheduling and memory.
    const unsigned cpus = util::available_cpus();
    const unsigned workers = threads == 0 || threads > cpus
                                 ? cpus
                                 : static_cast<unsigned>(threads);
    if (workers > 1) pool_ = std::make_unique<util::ThreadPool>(workers);
    const std::string store_dir = args.str("store");
    if (!store_dir.empty()) {
      core::ArtifactStoreOptions store_options;
      store_options.dir = store_dir;
      const long long budget = args.i64("store-budget");
      if (budget > 0) {
        store_options.byte_budget = static_cast<std::size_t>(budget);
      }
      store_options.clear = args.flag("store-clear");
      store_ = std::make_unique<core::ArtifactStore>(store_options);
    }
  }

  util::ArgParser& args() noexcept { return args_; }
  const util::ArgParser& args() const noexcept { return args_; }

  bool full() const { return args_.flag("full"); }
  bool json() const { return args_.flag("json"); }
  bool reuse() const { return !args_.flag("no-reuse"); }
  bool metrics() const { return args_.flag("metrics"); }
  bool flight() const { return !args_.flag("no-flight"); }
  std::string trace_path() const { return args_.str("trace"); }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(args_.i64("seed"));
  }
  unsigned trials() const { return static_cast<unsigned>(args_.i64("trials")); }

  util::TableStyle style() const {
    if (json()) return util::TableStyle::kJson;
    return args_.flag("csv") ? util::TableStyle::kCsv
                             : util::TableStyle::kAscii;
  }

  /// Worker pool from --threads, capped at util::available_cpus()
  /// (null = serial: --threads 1, or a single available CPU).
  util::ThreadPool* pool() noexcept { return pool_.get(); }

  /// Persistent artifact store from --store (nullptr = memory only).
  core::ArtifactStore* store() noexcept { return store_.get(); }

  /// Engine options wired from the common flags. Pass the study to get a
  /// per-cell stderr progress line under --progress.
  core::SweepOptions sweep_options(const core::Study* study = nullptr) const {
    core::SweepOptions options;
    options.pool = pool_.get();
    options.reuse = reuse();
    options.store = store_.get();
    if (args_.flag("progress") && study != nullptr) {
      const core::Study s = *study;  // copy: outlives the caller's study
      options.progress = [s](const core::StudyCellRef& ref,
                             double elapsed_ms) {
        std::ostringstream line;
        line << "  .. " << dist_name(s.distributions[ref.distribution])
             << " trial " << ref.trial + 1 << "/" << s.trials << ": "
             << curve_name(s.particle_curves[ref.particle_curve]);
        if (!s.paired_curves()) {
          line << " x "
               << curve_name(s.processor_curves[ref.processor_curve]);
        }
        line << " @ " << topology_name(s.topologies[ref.topology])
             << " p=" << s.proc_counts[ref.proc_count] << " done in "
             << std::fixed << std::setprecision(2) << elapsed_ms << " ms\n";
        std::cerr << line.str();
      };
    }
    return options;
  }

  /// Record a finished sweep in the output document (the "study" JSON
  /// member) and, under --progress, summarize the engine's artifact
  /// accounting on stderr: hits and misses, materialized and peak live
  /// bytes, and per-stage hit ratios.
  void attach_study(const core::StudyResult& result) {
    attach_json("study", core::study_json(result));
    if (!args_.flag("progress")) return;
    const core::SweepStats& sweep = result.sweep;
    std::ostringstream line;
    line << "  .. cache: " << sweep.total_hits() << " hits / "
         << sweep.total_misses() << " misses, " << sweep.bytes
         << " artifact bytes (" << sweep.peak_bytes
         << " peak live)\n  .. stage hit ratios:";
    for (unsigned i = 0; i < core::kSweepStageCount; ++i) {
      const auto stage = static_cast<core::SweepStage>(i);
      const core::StageCounters& c = sweep.stage(stage);
      if (c.hits + c.misses == 0) continue;
      line << ' ' << core::sweep_stage_name(stage) << '='
           << std::fixed << std::setprecision(2) << c.hit_ratio();
    }
    line << '\n';
    if (store_ != nullptr) {
      const core::ArtifactStore::Stats st = store_->stats();
      line << "  .. store: " << st.hits << " hits / " << st.misses
           << " misses, " << st.corrupt << " corrupt, " << st.spills
           << " spills, " << st.resident_files << " files ("
           << st.resident_bytes << " bytes)\n";
    }
    std::cerr << line.str();
  }

  /// Legacy string progress sink for the non-sweep studies (fig5).
  core::ProgressFn text_progress() const {
    if (!args_.flag("progress")) return {};
    return [](const std::string& msg) { std::cerr << "  .. " << msg << "\n"; };
  }

  /// Stream for human prose (headers, legends): stdout normally, a
  /// discard sink under --json so stdout stays one parseable document.
  std::ostream& prose() { return json() ? null_ : std::cout; }

  /// Print a table in the selected style (suppressed under --json) and
  /// record it for the output document.
  void emit(const util::Table& table) {
    if (!json()) {
      table.print(std::cout, style());
      std::cout << "\n";
    }
    tables_.push_back(table);
  }

  /// Attach a pre-serialized JSON member to the output document, e.g.
  /// attach_json("study", core::study_json(result)).
  void attach_json(std::string key, std::string json_value) {
    attachments_.emplace_back(std::move(key), std::move(json_value));
  }

  /// The combined JSON document (run_harness adds name + elapsed time).
  std::string document(const std::string& name,
                       double elapsed_seconds) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"bench\":\"" << util::json_escape(name) << '"'
       << ",\"elapsed_seconds\":" << elapsed_seconds
       << ",\"reuse\":" << (reuse() ? "true" : "false")
       << ",\"threads\":" << (pool_ ? pool_->size() : 1u)
       << ",\"build\":" << build_info_json();
    // Every document from a store-backed run carries the store's
    // accounting — bench_to_json.py gates on the warm hit ratio.
    if (store_ != nullptr) os << ",\"artifact_store\":" << store_->json();
    os << ",\"tables\":[";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (i) os << ',';
      tables_[i].print(os, util::TableStyle::kJson);
    }
    os << ']';
    for (const auto& [key, value] : attachments_) {
      os << ",\"" << util::json_escape(key) << "\":" << value;
    }
    os << '}';
    return os.str();
  }

 private:
  util::ArgParser& args_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<core::ArtifactStore> store_;
  detail::NullBuffer null_buffer_;
  std::ostream null_;
  std::vector<util::Table> tables_;
  std::vector<std::pair<std::string, std::string>> attachments_;
};

/// One experiment binary: a name/description for --help, optional extra
/// options, and the run body.
struct HarnessSpec {
  std::string name;
  std::string description;
  std::function<void(util::ArgParser&)> add_options;  ///< optional extras
  std::function<int(Harness&)> run;
};

/// The shared main(): registers the common flags once, parses, times the
/// run body, and writes the JSON document to stdout (--json) and/or a
/// file (--out).
inline int run_harness(int argc, const char* const* argv,
                       const HarnessSpec& spec) {
  util::ArgParser args(spec.name, spec.description);
  args.add_flag("full", "run at the paper's exact scale (slow on laptops)");
  args.add_flag("csv", "emit CSV instead of ASCII tables");
  args.add_flag("json", "emit one JSON document on stdout");
  args.add_flag("progress", "report per-cell progress on stderr");
  args.add_flag("no-reuse",
                "disable sweep-engine artifact reuse (per-cell baseline)");
  args.add_flag("metrics",
                "embed an obs metrics snapshot in the JSON document");
  args.add_flag("no-flight",
                "disable the flight recorder, crash handler, and sampler");
  args.add_option("trace",
                  "write a Chrome/Perfetto trace of the run to this file",
                  "");
  args.add_option("crash-report",
                  "crash-report path for the flight recorder's handler",
                  "sfcacd_crash_report.json");
  args.add_option("sample-ms",
                  "registry sampling period in ms (0 = default/env "
                  "SFCACD_OBS_SAMPLE_MS, -1 = no sampler thread)",
                  "0");
  args.add_option("sample-capacity",
                  "time-series ring capacity in points per metric "
                  "(0 = default)",
                  "0");
  args.add_option("prom",
                  "write the final metrics registry to this file in the "
                  "Prometheus text exposition format",
                  "");
  args.add_option("store",
                  "persistent artifact store directory (empty = memory-only "
                  "cache; warm reruns deserialize instead of recomputing)",
                  "");
  args.add_option("store-budget",
                  "artifact store byte budget (0 = default 4 GiB); the "
                  "newest file is never evicted, so the store may hold up "
                  "to budget + its largest artifact",
                  "0");
  args.add_flag("store-clear",
                "delete every stored artifact when opening --store");
  args.add_option("seed", "master RNG seed", "1");
  args.add_option("trials", "independent trials to average", "1");
  args.add_option("threads",
                  "worker threads, capped at the CPUs the process may use "
                  "(1 = serial, 0 = all of them)",
                  "1");
  args.add_option("out", "write the JSON document to this file", "");
  if (spec.add_options) spec.add_options(args);

  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n\n" << args.usage();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  std::unique_ptr<Harness> harness_ptr;
  try {
    harness_ptr = std::make_unique<Harness>(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  Harness& harness = *harness_ptr;
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  try {
    status = spec.run(harness);
  } catch (const std::exception& e) {
    // An invalid study (or a failed stage build) is reported like a
    // malformed command line, not left to abort the process.
    obs::Sampler::instance().stop();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // The run body (and its pool tasks — the Harness pool idles before the
  // body returns) has finished: snapshot metrics into the document and
  // flush the trace.
  if (harness.flight()) {
    // Stop the sampler before exporting so the rings are stable, then
    // take one final sample: even a run shorter than one period gets a
    // closing point, and the crash-report snapshot reflects run end.
    obs::Sampler::instance().stop();
    obs::Sampler::instance().sample_once(obs::now_ns());
    // Quiescent now (run body and pool tasks done): the stage profile is
    // part of every document so regressions are attributable post hoc.
    harness.attach_json(
        "stage_profile",
        obs::FlightRecorder::instance().stage_profile_json());
  }
  if (harness.metrics()) {
    harness.attach_json("metrics", obs::Registry::instance().json());
    if (harness.flight()) {
      harness.attach_json("timeseries", obs::Sampler::instance().json());
    }
  }
  const std::string prom_path = args.str("prom");
  if (!prom_path.empty()) {
    std::ofstream os(prom_path);
    if (!os) {
      std::cerr << "error: cannot open " << prom_path << " for writing\n";
      return 1;
    }
    os << obs::prometheus_text();
  }
  const std::string trace_path = harness.trace_path();
  if (!trace_path.empty()) {
    obs::Tracer::instance().set_enabled(false);
    if (!obs::Tracer::instance().write_chrome_trace(trace_path)) {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    std::cerr << "trace: " << obs::Tracer::instance().event_count()
              << " events -> " << trace_path << "\n";
  }

  const std::string doc = harness.document(spec.name, elapsed);
  if (harness.json()) std::cout << doc << "\n";
  const std::string out = args.str("out");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::cerr << "error: cannot open " << out << " for writing\n";
      return 1;
    }
    os << doc << "\n";
  }
  return status;
}

}  // namespace sfc::bench
