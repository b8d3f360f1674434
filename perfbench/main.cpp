// main.cpp — the ACD engine benchmark.
//
// One process runs one workload against the sfcacd library and prints one
// JSON result line as the last line of stdout:
//
//   acd_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--state-dir DIR]
//
// Workloads (perfbench/README.md gives the reasons and the metric map):
//   table1_nfi   Table I grid, NFI only, torus p = 65536
//   warm_store   the table1_nfi grid answered from a filled ArtifactStore
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, timed by spans this file records around its own calls
// into each module's public functions (nothing inside the library is
// instrumented). Every run checks the library's outputs, outside all timed
// intervals, and counts each checked cell as one operation.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/acd.hpp"
#include "core/artifact_store.hpp"
#include "core/dynamic_acd.hpp"
#include "core/rank_pair.hpp"
#include "core/sweep.hpp"
#include "distribution/distribution.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "topology/factory.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sfc;
using Clock = std::chrono::steady_clock;
using Sample = std::vector<Point2>;
namespace fs = std::filesystem;

// ------------------------------------------------------------- statistics

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The fastest sample: the estimator for repeated set-ups and studies. On
/// a host whose memory system slows in phases of seconds to minutes, the
/// median and even the lower quartile of a run follow the phase; a run
/// that is mostly slow still has a few samples from a fast moment.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1u : hc;
}

/// Restart the resident-set high-water mark (Linux: clear_refs "5" resets
/// VmHWM to the current RSS). False where unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Peak resident memory in MiB since the last reset_peak_rss(); the
/// process-lifetime peak from getrusage where /proc is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

// ------------------------------------------------------------------ report

/// The result line: correctness counts plus named metrics in emission
/// order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// One checked operation (a cell, or a study that must return).
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  std::string json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
      os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
         << "\": {\"value\": " << num << ", \"unit\": \"" << metrics_[i].unit
         << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------ hang guard

/// Wall-clock limit on one library call. The call runs on the calling
/// thread; if it has not returned by the deadline the watchdog counts it
/// as a failed operation, prints the result line and ends the process (a
/// hung pool cannot be cancelled from outside). The watchdog only reads
/// the report while the main thread is blocked inside the armed call.
class Watchdog {
 public:
  explicit Watchdog(Report& report) : report_(report) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Run fn() under a limit of `limit_s` seconds.
  template <typename Fn>
  auto run(double limit_s, const std::string& what, Fn&& fn) {
    arm(limit_s, what);
    struct Disarm {
      Watchdog* w;
      ~Disarm() { w->disarm(); }
    } disarm{this};
    return fn();
  }

 private:
  void arm(double limit_s, const std::string& what) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      deadline_ = Clock::now() + to_duration(limit_s);
      what_ = what;
    }
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lk(mutex_);
    deadline_.reset();
  }
  void loop() {
    std::unique_lock<std::mutex> lk(mutex_);
    while (!stop_) {
      if (!deadline_) {
        cv_.wait(lk);
        continue;
      }
      const Clock::time_point deadline = *deadline_;
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
          deadline_ && *deadline_ == deadline) {
        report_.check(false, "time limit exceeded: " + what_);
        std::cerr << "acd_bench: " << what_ << " exceeded its time limit\n";
        std::cout << report_.json() << std::endl;
        std::_Exit(0);
      }
    }
  }

  Report& report_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Clock::time_point> deadline_;
  std::string what_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

// ------------------------------------------------------------------ tracing

/// In-memory span recorder for the traced run. Spans wrap this file's
/// calls into the library; a span's self time is its duration minus the
/// part its child spans cover. Written out as JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    double work = 0.0;  ///< items processed (particles, events, pairs, bytes)
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = seconds_between(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id, double work) {
    spans_[static_cast<std::size_t>(id)].end_s =
        seconds_between(epoch_, Clock::now());
    spans_[static_cast<std::size_t>(id)].work = work;
    stack_.pop_back();
  }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }

  /// Per-item cost in ns of every span called `name` with nonzero work.
  std::vector<double> ns_per_item(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.work > 0) {
        out.push_back((s.end_s - s.start_s) * 1e9 / s.work);
      }
    }
    return out;
  }

  void write_json(const fs::path& path) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                    "\"work\": %.17g}",
                    i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                    s.end_s - s.start_s - child[i], s.work);
      out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span. Measures its own duration whether or not the tracer
/// records, so untraced runs time the same interval.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(std::move(name)) : -1),
        start_(Clock::now()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void work(double items) noexcept { work_ = items; }

  /// End the span now; returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_between(start_, Clock::now());
      if (id_ >= 0) tracer_.close(id_, work_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point start_;
  double work_ = 0.0;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

// ---------------------------------------------------------------- workloads

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  fs::path state_dir;
};

/// Wall-clock limit for one study (or one oracle run).
constexpr double kStudyLimitS = 60.0;
constexpr double kOracleLimitS = 120.0;

constexpr CurveKind kCurves[] = {CurveKind::kHilbert, CurveKind::kMorton,
                                 CurveKind::kGray, CurveKind::kRowMajor};

const char* curve_key(CurveKind c) {
  switch (c) {
    case CurveKind::kHilbert:
      return "hilbert";
    case CurveKind::kMorton:
      return "zcurve";
    case CurveKind::kGray:
      return "gray";
    case CurveKind::kRowMajor:
      return "rowmajor";
    default:
      return "other";
  }
}

const char* topology_key(topo::TopologyKind k) {
  switch (k) {
    case topo::TopologyKind::kBus:
      return "bus";
    case topo::TopologyKind::kRing:
      return "ring";
    case topo::TopologyKind::kMesh:
      return "mesh";
    case topo::TopologyKind::kTorus:
      return "torus";
    case topo::TopologyKind::kQuadtree:
      return "quadtree";
    case topo::TopologyKind::kHypercube:
      return "hypercube";
    default:
      return "other";
  }
}

core::Study table1_study(const Config& c) {
  core::Study s;
  s.name = "table1_nfi";
  s.particles = c.tiny ? 20000 : 250000;
  s.level = c.tiny ? 8 : 10;
  s.radius = 1;
  s.seed = c.seed;
  s.trials = 1;  // trials > 1 under a pool can hang: see README.md
  s.far_field = false;
  s.distributions.assign(dist::kAllDistributions,
                         dist::kAllDistributions + 3);
  s.particle_curves.assign(kCurves, kCurves + 4);
  s.processor_curves = s.particle_curves;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {c.tiny ? 256u : 65536u};
  return s;
}

/// The benchmark's inputs for a study: trial-0 samples of every
/// distribution, drawn exactly as the sweep engine draws them.
std::vector<Sample> make_samples(Tracer& tr, const core::Study& s) {
  std::vector<Sample> out;
  for (const dist::DistKind dk : s.distributions) {
    dist::SampleConfig cfg;
    cfg.count = s.particles;
    cfg.level = s.level;
    cfg.seed = util::substream_seed(s.seed, 0);
    Scope span(tr, "distribution.sample_particles");
    span.work(static_cast<double>(s.particles));
    out.push_back(dist::sample_particles<2>(dk, cfg));
  }
  return out;
}

/// Count every cell of `got` that differs bit for bit from `want`.
void check_cells(Report& rep, const core::StudyResult& got,
                 const core::StudyResult& want, const std::string& what) {
  if (got.cells.size() != want.cells.size()) {
    rep.check(false, what + ": cell count differs");
    return;
  }
  for (std::size_t i = 0; i < got.cells.size(); ++i) {
    rep.check(same_bits(got.cells[i].nfi_acd, want.cells[i].nfi_acd) &&
                  same_bits(got.cells[i].ffi_acd, want.cells[i].ffi_acd),
              what + ": cell " + std::to_string(i) + " differs");
  }
}

/// Cost (seconds) of one build of each sweep stage that has a standalone
/// public call, measured by the layer probes and averaged over the
/// study's configurations. kCanonical has no standalone call.
struct LayerCosts {
  double sample_s = 0.0;    // kSample: dist::sample_particles
  double order_s = 0.0;     // kOrdering: core::sort_by_curve
  double instance_s = 0.0;  // kInstance: AcdInstance::from_sorted
  double nfi_s = 0.0;       // kNfiHistogram: fmm::nfi_histogram
  double ffi_s = 0.0;       // kFfiHistogram: fmm::ffi_histograms
  double topology_s = 0.0;  // kTopology: topo::make_topology
  double fold_s = 0.0;      // kFold (one model): Topology::fold, fmm::ffi_fold
};

std::size_t curve_slot(CurveKind c) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (kCurves[i] == c) return i;
  }
  return 0;
}

/// Time the public calls of every layer on the workload's inputs:
/// sfc (all four curves), fmm (instance, NFI/FFI histograms), topology
/// (build and fold for all six kinds) and store (save/load/open of the
/// histograms). Emits the corresponding per-layer metrics.
LayerCosts probe_layers(Tracer& tr, Report& rep, const Config& c,
                        const core::Study& s,
                        const std::vector<Sample>& samples,
                        bool report_store_open) {
  constexpr int kReps = 3;
  LayerCosts costs;
  const topo::Rank procs = s.proc_counts.front();
  const double n = static_cast<double>(s.particles);
  costs.sample_s = median(tr.durations("distribution.sample_particles"));

  // sfc: every paper curve on the first sample.
  std::vector<std::vector<double>> order_ns(4);
  for (std::size_t ci = 0; ci < 4; ++ci) {
    const auto curve = make_curve<2>(kCurves[ci]);
    for (int r = 0; r < kReps; ++r) {
      Scope span(tr, std::string("sfc.sort_by_curve.") + curve_key(kCurves[ci]));
      span.work(n);
      const Sample sorted = core::sort_by_curve<2>(samples[0], s.level, *curve);
      order_ns[ci].push_back(span.stop() * 1e9 / n);
    }
  }
  for (std::size_t ci = 0; ci < 4; ++ci) {
    rep.metric(std::string("sfc.order_ns_per_particle.") + curve_key(kCurves[ci]),
               median(order_ns[ci]), "ns");
  }

  // fmm: instance and histograms for every (distribution, curve) the
  // study builds. NFI-only studies probe FFI on the first pair only.
  std::uint64_t nfi_events = 0, ffi_events = 0;
  std::size_t hist_bytes = 0;
  std::vector<double> nfi_ns, ffi_ns;  // every repetition, per event
  std::vector<double> order_cost, inst_cost, nfi_cost, ffi_cost;  // per pair
  std::optional<core::RankPairAccumulator> first_nfi;
  std::optional<fmm::FfiHistograms> first_ffi;
  const fmm::Partition part(s.particles, procs);
  for (std::size_t d = 0; d < samples.size(); ++d) {
    for (std::size_t ci = 0; ci < s.particle_curves.size(); ++ci) {
      const auto curve = make_curve<2>(s.particle_curves[ci]);
      const Sample sorted =
          core::sort_by_curve<2>(samples[d], s.level, *curve);
      order_cost.push_back(
          median(order_ns[curve_slot(s.particle_curves[ci])]) * n * 1e-9);
      std::vector<double> inst_s;
      std::optional<core::AcdInstance<2>> inst;
      for (int r = 0; r < kReps; ++r) {
        Scope span(tr, "fmm.from_sorted");
        span.work(n);
        inst.emplace(core::AcdInstance<2>::from_sorted(sorted, s.level));
        inst_s.push_back(span.stop());
      }
      inst_cost.push_back(median(inst_s));

      std::vector<double> nfi_s;
      std::optional<core::RankPairAccumulator> nfi;
      for (int r = 0; r < kReps; ++r) {
        Scope span(tr, "fmm.nfi_histogram");
        nfi.emplace(fmm::nfi_histogram<2>(inst->particles(), inst->grid(), part,
                                          s.radius, s.norm));
        nfi->seal();
        const double events = static_cast<double>(nfi->events());
        span.work(events);
        nfi_s.push_back(span.stop());
        nfi_ns.push_back(nfi_s.back() * 1e9 / events);
      }
      nfi_cost.push_back(median(nfi_s));
      nfi_events += nfi->events();
      hist_bytes += nfi->memory_bytes();

      if (s.far_field || (d == 0 && ci == 0)) {
        std::vector<double> ffi_s;
        std::optional<fmm::FfiHistograms> ffi;
        for (int r = 0; r < 2; ++r) {
          Scope span(tr, "fmm.ffi_histograms");
          ffi.emplace(fmm::ffi_histograms<2>(inst->tree(), part));
          ffi->interpolation.seal();
          ffi->interaction.seal();
          const double events = static_cast<double>(
              ffi->interpolation.events() + ffi->interaction.events());
          span.work(events);
          ffi_s.push_back(span.stop());
          ffi_ns.push_back(ffi_s.back() * 1e9 / events);
        }
        ffi_cost.push_back(median(ffi_s));
        ffi_events += ffi->interpolation.events() + ffi->interaction.events();
        if (s.far_field) hist_bytes += ffi->memory_bytes();
        if (!first_ffi) first_ffi = std::move(ffi);
      }
      if (!first_nfi) first_nfi = std::move(nfi);
    }
  }
  costs.order_s = mean(order_cost);
  costs.instance_s = mean(inst_cost);
  costs.nfi_s = mean(nfi_cost);
  costs.ffi_s = mean(ffi_cost);
  rep.metric("fmm.instance_ns_per_particle", median(inst_cost) * 1e9 / n, "ns");
  rep.metric("fmm.nfi_ns_per_event", median(nfi_ns), "ns");
  rep.metric("fmm.nfi_events", static_cast<double>(nfi_events), "count");
  rep.metric("fmm.ffi_ns_per_event", median(ffi_ns), "ns");
  rep.metric("fmm.ffi_events", static_cast<double>(ffi_events), "count");
  rep.metric("fmm.hist_bytes", static_cast<double>(hist_bytes), "bytes");

  // topology: build and fold every kind at the workload's p, against the
  // first (distribution, curve) histograms. A fold build of the study
  // prices one model on one cell, so its cost is the mean over the models
  // the study evaluates.
  const auto ranking = make_curve<2>(CurveKind::kHilbert);
  const topo::PairCountsView view = first_nfi->view();
  const double pairs = static_cast<double>(view.distinct_pairs_bound());
  std::vector<double> build_ns, topology_cost, fold_cost;
  for (const topo::TopologyKind kind : topo::kAllTopologies) {
    std::unique_ptr<topo::Topology> net;
    std::vector<double> build_s;
    for (int r = 0; r < kReps; ++r) {
      Scope span(tr, std::string("topology.make_topology.") + topology_key(kind));
      net = topo::make_topology<2>(kind, procs, ranking.get());
      build_s.push_back(span.stop());
      build_ns.push_back(build_s.back() * 1e9);
    }
    std::vector<double> fold_s, ffi_fold_s;
    for (int r = 0; r < 5; ++r) {
      Scope span(tr, std::string("topology.fold.") + topology_key(kind));
      span.work(pairs);
      const core::CommTotals t = net->fold(view);
      fold_s.push_back(span.stop());
      if (t.count != first_nfi->events()) {
        rep.check(false, "fold count differs from the histogram's events");
      }
    }
    for (int r = 0; r < 3; ++r) {
      Scope span(tr, std::string("fmm.ffi_fold.") + topology_key(kind));
      (void)fmm::ffi_fold(*first_ffi, *net);
      ffi_fold_s.push_back(span.stop());
    }
    rep.metric(std::string("topology.fold_ns_per_pair.") + topology_key(kind),
               median(fold_s) * 1e9 / pairs, "ns");
    if (std::find(s.topologies.begin(), s.topologies.end(), kind) !=
        s.topologies.end()) {
      topology_cost.push_back(median(build_s));
      std::vector<double> models;
      if (s.near_field) models.push_back(median(fold_s));
      if (s.far_field) models.push_back(median(ffi_fold_s));
      fold_cost.push_back(mean(models));
    }
  }
  costs.topology_s = mean(topology_cost);
  costs.fold_s = mean(fold_cost);
  rep.metric("topology.build_ns", median(build_ns), "ns");
  rep.metric("topology.fold_pairs", pairs, "count");

  // store: save both histograms to a fresh store, reopen it, load them.
  {
    const fs::path dir = c.state_dir / "probe-store";
    std::vector<std::uint8_t> nfi_bytes, ffi_bytes;
    core::rank_pairs_serialize(*first_nfi, nfi_bytes);
    fmm::ffi_histograms_serialize(*first_ffi, ffi_bytes);
    core::ArtifactStoreOptions opts;
    opts.dir = dir.string();
    opts.clear = true;
    {
      core::ArtifactStore store(opts);
      for (int r = 0; r < kReps; ++r) {
        const std::uint64_t key = static_cast<std::uint64_t>(r);
        {
          Scope span(tr, "store.save");
          span.work(static_cast<double>(nfi_bytes.size()));
          store.save(core::SweepStage::kNfiHistogram, key, nfi_bytes.data(),
                     nfi_bytes.size());
        }
        Scope span(tr, "store.save");
        span.work(static_cast<double>(ffi_bytes.size()));
        store.save(core::SweepStage::kFfiHistogram, key, ffi_bytes.data(),
                   ffi_bytes.size());
      }
    }
    opts.clear = false;
    std::vector<double> open_s;
    std::optional<core::ArtifactStore> store;
    for (int r = 0; r < kReps; ++r) {
      store.reset();
      Scope span(tr, "store.open");
      store.emplace(opts);
      open_s.push_back(span.stop());
    }
    for (int r = 0; r < kReps; ++r) {
      const std::uint64_t key = static_cast<std::uint64_t>(r);
      for (const core::SweepStage stage :
           {core::SweepStage::kNfiHistogram, core::SweepStage::kFfiHistogram}) {
        Scope span(tr, "store.load");
        const auto mapping = store->load(stage, key);
        span.work(mapping ? static_cast<double>(mapping->size()) : 0.0);
        span.stop();
        const std::vector<std::uint8_t>& want =
            stage == core::SweepStage::kNfiHistogram ? nfi_bytes : ffi_bytes;
        rep.check(mapping && mapping->size() == want.size() &&
                      std::memcmp(mapping->data(), want.data(), want.size()) == 0,
                  "store probe: loaded payload differs");
      }
    }
    rep.metric("store.save_ns_per_byte", median(tr.ns_per_item("store.save")),
               "ns");
    rep.metric("store.load_ns_per_byte", median(tr.ns_per_item("store.load")),
               "ns");
    if (report_store_open) {
      const core::ArtifactStore::Stats st = store->stats();
      rep.metric("store.open_s", median(open_s), "s");
      rep.metric("store.read_bytes", static_cast<double>(st.read_bytes), "bytes");
      rep.metric("store.hits", static_cast<double>(st.hits), "count");
      rep.metric("store.corrupt", static_cast<double>(st.corrupt), "count");
    }
    store.reset();
    fs::remove_all(dir);
  }
  return costs;
}

/// Layer time of one serial study in standalone-call terms: each stage's
/// probe cost times the builds SweepStats counted for it. kCanonical has
/// no standalone call, so its builds stay in the overhead. In a study
/// answered by a warm store the persisted stages' misses are loads, not
/// builds; samples and topologies are never persisted (see
/// store_persistable in core/sweep.cpp), so only they remain.
double attributable_s(const core::SweepStats& st, const LayerCosts& k,
                      bool warm_store) {
  using core::SweepStage;
  const auto cost = [&st](SweepStage stage, double per_build) {
    return per_build * static_cast<double>(st.stage(stage).misses);
  };
  double sum = cost(SweepStage::kSample, k.sample_s) +
               cost(SweepStage::kTopology, k.topology_s);
  if (!warm_store) {
    sum += cost(SweepStage::kOrdering, k.order_s) +
           cost(SweepStage::kInstance, k.instance_s) +
           cost(SweepStage::kNfiHistogram, k.nfi_s) +
           cost(SweepStage::kFfiHistogram, k.ffi_s) +
           cost(SweepStage::kFold, k.fold_s);
  }
  return sum;
}

/// Dynamics layer probe: a serial engine on the first sample at the
/// workload's p, ten 1% drift batches, torus folds.
void probe_dynamics(Tracer& tr, Report& rep, const core::Study& s,
                    const Sample& sample) {
  const auto curve = make_curve<2>(CurveKind::kHilbert);
  const topo::Rank procs = s.proc_counts.front();
  const auto net =
      topo::make_topology<2>(topo::TopologyKind::kTorus, procs, curve.get());
  core::DynamicAcd<2>::Options opts;
  opts.radius = s.radius;
  opts.norm = s.norm;
  std::unique_ptr<core::DynamicAcd<2>> engine;
  {
    Scope span(tr, "dynamics.build");
    engine = std::make_unique<core::DynamicAcd<2>>(sample, s.level, *curve,
                                                   procs, opts);
  }
  for (std::uint64_t step = 0; step < 10; ++step) {
    const auto moves = core::drift_moves<2>(engine->particles(), s.level,
                                            s.seed, step, 0.01);
    {
      Scope span(tr, "dynamics.move_particles");
      span.work(static_cast<double>(moves.size()));
      engine->move_particles(moves);
    }
    Scope span(tr, "dynamics.fold");
    (void)engine->nfi(*net);
    (void)engine->ffi(*net);
  }
  rep.metric("dynamics.build_s", median(tr.durations("dynamics.build")), "s");
  rep.metric("dynamics.move_ns_per_move",
             median(tr.ns_per_item("dynamics.move_particles")), "ns");
  rep.metric("dynamics.fold_ns", median(tr.durations("dynamics.fold")) * 1e9,
             "ns");
  rep.metric("dynamics.moves", static_cast<double>(engine->moves_applied()),
             "count");
  rep.metric("dynamics.repartitions",
             static_cast<double>(engine->repartitions()), "count");
}

void print_samples(const char* name, const std::vector<double>& v) {
  std::cout << "# " << name << " samples:";
  for (const double x : v) std::cout << ' ' << x;
  std::cout << "\n";
}

// ------------------------------------------------------------ sweep runner

/// What one set-up leaves for the studies: the inputs and the pool.
struct Setup {
  std::vector<Sample> samples;
  std::unique_ptr<util::ThreadPool> pool;
};

/// Both workloads: set-ups, a cold study, then warm studies at the
/// workload's worker count alternating with serial ones for --seconds,
/// then the checks against a serial no-reuse run.
void run_sweep(const Config& c, Report& rep, Watchdog& guard, Tracer& tr,
               const core::Study& study, bool warm_store, unsigned workers) {
  const fs::path store_dir = c.state_dir / "store";
  core::ArtifactStoreOptions store_opts;
  store_opts.dir = store_dir.string();

  // ---- set-up: inputs, pool and (warm_store) a fresh store filled by a
  // pooled cold run. kSetups run here; the timed window adds more between
  // study pairs, up to kSetupShare of its time, so the set-ups span the
  // host's speed phases as the studies do. setup_s is the fastest.
  constexpr int kSetups = 5;
  constexpr double kSetupShare = 0.15;
  std::vector<double> setup_s;
  std::vector<core::StudyResult> fills;
  const auto set_up = [&] {
    Setup out;
    Scope span(tr, "setup");
    out.samples = make_samples(tr, study);
    {
      Scope pspan(tr, "util.thread_pool.create");
      out.pool = std::make_unique<util::ThreadPool>(workers);
    }
    if (warm_store) {
      core::ArtifactStoreOptions fill_opts = store_opts;
      fill_opts.clear = true;
      core::ArtifactStore store(fill_opts);
      core::SweepOptions o;
      o.pool = out.pool.get();
      o.store = &store;
      Scope fspan(tr, "store.fill");
      fills.push_back(guard.run(kStudyLimitS, "store fill",
                                [&] { return core::run_study(study, o); }));
    }
    setup_s.push_back(span.stop());
    return out;
  };
  Setup live;
  for (int r = 0; r < kSetups; ++r) {
    live = Setup{};
    live = set_up();
  }

  // ---- one study, optionally store-backed (the store is opened inside
  // the interval, as a one-shot binary would).
  std::optional<core::ArtifactStore::Stats> first_store_stats;
  const auto one_study = [&](util::ThreadPool* p, double& seconds) {
    core::SweepOptions o;
    o.pool = p;
    Scope span(tr, p != nullptr ? "sweep.run_study.parallel"
                                : "sweep.run_study.serial");
    std::optional<core::ArtifactStore> store;
    if (warm_store) {
      Scope ospan(tr, "store.open");
      store.emplace(store_opts);
      o.store = &*store;
    }
    core::StudyResult result = guard.run(
        kStudyLimitS, study.name, [&] { return core::run_study(study, o); });
    seconds = span.stop();
    if (store) {
      const core::ArtifactStore::Stats st = store->stats();
      rep.check(st.corrupt == 0 && st.hits > 0,
                "warm store: corrupt files or no hits");
      if (!first_store_stats) first_store_stats = st;
    }
    return result;
  };

  // The first study in the process runs serially, as a one-shot bench
  // binary does by default (--threads 1).
  std::vector<core::StudyResult> results;
  std::vector<double> cold_s(1, 0.0);
  results.push_back(one_study(nullptr, cold_s[0]));

  // ---- timed window: pooled and serial studies alternate, so a slow
  // phase of the host hits both. The first kWarmup pairs are checked but
  // not timed (the first pooled studies in a process run up to 3x slower).
  // Every third pair hands all free heap back to the OS and then runs one
  // extra study, whose time is not kept with the others. Untraced, it is a
  // pooled study that gives a peak-RSS sample: allocator leftovers of the
  // studies before it, which vary from run to run, are gone. Traced, it is
  // a cold sample: a serial study that, like a fresh process, pays
  // first-touch page faults for every artifact. sweep.cold_study_s is the
  // median of those and the first study.
  constexpr std::size_t kWarmup = 2;
  constexpr std::size_t kMinTimed = 4;
  std::vector<double> parallel_s, serial_s, traced_s, untraced_s;
  std::vector<double> rss_mib;  // peak resident memory per probe study
  std::optional<core::SweepStats> parallel_stats;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + to_duration(c.seconds);
  double window_setup_s = 0.0;
  for (std::size_t i = 0;
       (Clock::now() < deadline || parallel_s.size() < kMinTimed) &&
       parallel_s.size() < 1000;
       ++i) {
    if (window_setup_s < kSetupShare * seconds_between(start, Clock::now())) {
      (void)set_up();  // throwaway: only its time is kept
      window_setup_s += setup_s.back();
    }
    const bool timed = i >= kWarmup;
    // Traced runs alternate the tracer on the pooled studies, so the
    // traced/untraced pair measures the tracing overhead.
    const bool traced = c.trace && i % 2 == 1;
    tr.set_enabled(traced);
    double s = 0.0;
    results.push_back(one_study(live.pool.get(), s));
    if (timed) {
      parallel_s.push_back(s);
      (traced ? traced_s : untraced_s).push_back(s);
    }
    if (!parallel_stats) parallel_stats = results.back().sweep;
    tr.set_enabled(false);
    results.push_back(one_study(nullptr, s));
    if (timed) serial_s.push_back(s);
    if (timed && i % 3 == 0) {
      malloc_trim(0);
      if (c.trace) {
        results.push_back(one_study(nullptr, s));
        cold_s.push_back(s);
      } else {
        reset_peak_rss();
        results.push_back(one_study(live.pool.get(), s));
        rss_mib.push_back(peak_rss_mib());
      }
    }
  }
  tr.set_enabled(c.trace);

  // ---- checks, untimed: every cell of every study and every store fill
  // against a serial no-reuse run.
  core::SweepOptions oracle_opts;
  oracle_opts.reuse = false;
  const core::StudyResult oracle = guard.run(
      kOracleLimitS, "no-reuse oracle",
      [&] { return core::run_study(study, oracle_opts); });
  for (std::size_t i = 0; i < results.size(); ++i) {
    check_cells(rep, results[i], oracle, study.name + " study " +
                                             std::to_string(i));
  }
  for (std::size_t i = 0; i < fills.size(); ++i) {
    check_cells(rep, fills[i], oracle, "store fill " + std::to_string(i));
  }
  // The benchmark's own inputs are the library's: one cell recomputed
  // from them through AcdInstance must match.
  {
    const auto curve = make_curve<2>(study.particle_curves[0]);
    const auto ranking = make_curve<2>(study.paired_curves()
                                           ? study.particle_curves[0]
                                           : study.processor_curves[0]);
    const auto net = topo::make_topology<2>(
        study.topologies[0], study.proc_counts[0], ranking.get());
    const core::AcdInstance<2> inst(live.samples[0], study.level, *curve);
    const fmm::Partition part(live.samples[0].size(), study.proc_counts[0]);
    const double nfi = inst.nfi(part, *net, study.radius, study.norm).acd();
    rep.check(same_bits(nfi, oracle.cell(0, 0, 0, 0, 0).nfi_acd),
              "benchmark sample differs from the library's");
  }

  print_samples("setup_s", setup_s);
  print_samples("study_s", parallel_s);
  print_samples("serial_study_s", serial_s);
  print_samples("peak_rss_mib", rss_mib);
  if (!c.trace) {
    rep.metric("setup_s", fastest(setup_s), "s");
    rep.metric("study_s", fastest(parallel_s), "s");
    rep.metric("serial_study_s", fastest(serial_s), "s");
    rep.metric("peak_rss_mib", median(rss_mib), "MiB");
    return;
  }

  // ---- per-layer metrics (traced run).
  rep.metric("distribution.sample_ns_per_particle",
             median(tr.ns_per_item("distribution.sample_particles")), "ns");
  const LayerCosts costs = probe_layers(tr, rep, c, study, live.samples,
                                        /*report_store_open=*/!warm_store);
  if (warm_store) {
    const core::ArtifactStore::Stats st = *first_store_stats;
    rep.metric("store.open_s", median(tr.durations("store.open")), "s");
    rep.metric("store.read_bytes", static_cast<double>(st.read_bytes), "bytes");
    rep.metric("store.hits", static_cast<double>(st.hits), "count");
    rep.metric("store.corrupt", static_cast<double>(st.corrupt), "count");
  }
  const core::SweepStats& stats = *parallel_stats;
  const double store_hits =
      warm_store ? static_cast<double>(first_store_stats->hits) : 0.0;
  rep.metric("sweep.builds",
             static_cast<double>(stats.total_misses()) - store_hits, "count");
  rep.metric("sweep.hits", static_cast<double>(stats.total_hits()), "count");
  rep.metric("sweep.peak_bytes", static_cast<double>(stats.peak_bytes),
             "bytes");
  rep.metric("sweep.overhead_s",
             fastest(serial_s) - attributable_s(stats, costs, warm_store),
             "s");
  rep.metric("sweep.parallel_speedup",
             fastest(serial_s) / fastest(parallel_s), "x");
  rep.metric("sweep.cold_study_s", median(cold_s), "s");
  probe_dynamics(tr, rep, study, live.samples[0]);
  rep.metric("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0,
             "frac");
}

// -------------------------------------------------------------------- main

int usage(const char* msg) {
  std::cerr << "acd_bench: " << msg
            << "\nusage: acd_bench --workload table1_nfi|warm_store --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] "
               "[--state-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  c.state_dir = ".bench_build/state";
  if (argc % 2 == 0) return usage("options take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        c.workload = val;
      } else if (key == "--seed") {
        c.seed = std::stoull(val);
      } else if (key == "--seconds") {
        c.seconds = std::stod(val);
      } else if (key == "--trace") {
        c.trace = val == "1";
      } else if (key == "--scale") {
        if (val != "full" && val != "tiny") return usage("bad --scale");
        c.tiny = val == "tiny";
      } else if (key == "--state-dir") {
        c.state_dir = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (c.seconds <= 0) return usage("--seconds must be positive");
  if (c.workload != "table1_nfi" && c.workload != "warm_store") {
    return usage("unknown workload");
  }

  const unsigned workers = std::min(4u, cpu_count());
  c.state_dir /= c.workload + "-" + std::to_string(::getpid());
  fs::create_directories(c.state_dir);

  Report rep;
  Tracer tr;
  tr.set_enabled(c.trace);
  {
    Watchdog guard(rep);
    try {
      core::Study study = table1_study(c);
      const bool warm_store = c.workload == "warm_store";
      if (warm_store) study.name = "warm_store";
      run_sweep(c, rep, guard, tr, study, warm_store, workers);
    } catch (const std::exception& e) {
      std::cerr << "acd_bench: " << e.what() << "\n";
      rep.check(false, std::string("threw: ") + e.what());
    }
  }
  if (c.trace) {
    rep.metric("failed_frac",
               static_cast<double>(rep.failed()) /
                   static_cast<double>(
                       std::max<std::uint64_t>(rep.attempted(), 1)),
               "frac");
    const fs::path trace_path = c.state_dir.parent_path() /
                                ("trace-" + c.workload + "-seed" +
                                 std::to_string(c.seed) + ".json");
    tr.write_json(trace_path);
    std::cout << "# spans written to " << trace_path.string() << "\n";
  }
  fs::remove_all(c.state_dir);
  for (const std::string& f : rep.failures()) std::cout << "# FAILED " << f << "\n";
  std::cout << "# workers " << workers << ", attempted " << rep.attempted()
            << ", failed " << rep.failed() << "\n";
  std::cout << rep.json() << std::endl;
  return 0;
}
