// sweep.hpp — the grid-sweep engine behind every ACD study.
//
// The paper's evaluation is a grid sweep: Tables I/II enumerate
// {distribution x particle-order x processor-order}, Figure 6
// {topology x curve}, Figure 7 {p x curve}. Every cell runs the same
// pipeline — sample, order, partition, histogram, fold — and most of the
// pipeline is *shared* between cells: the rank-pair histograms produced
// by the NFI/FFI models depend only on (sample, particle order, p,
// radius), not on the topology or processor order, which only enter the
// final p²-bounded fold. The engine decomposes a declarative Study into
// content-hash-keyed stage artifacts and runs it in three steps: plan
// one deduplicated task graph (one node per distinct artifact, counted
// into SweepStats as it is planned, loaded from the optional on-disk
// ArtifactStore when it holds the key), execute the graph on the
// ThreadPool (each node's output is freed once its last consumer has
// finished), and drain the cells in grid order. Independent cells run
// concurrently end-to-end while Table I's four processor-order rows and
// Figure 6's six topologies still fold the *same* histograms instead of
// re-running the O(n·window) enumeration. The spatial side of a sample
// is factored out once per (distribution, trial) as a cell-sorted
// *canonical* copy with its occupancy grid; each curve then contributes
// only a rank table (a linear-time bucket argsort of its cell indices),
// the NFI events are enumerated over the canonical copy with explicit
// owners, and the curve-sorted AcdInstance (needed by the FFI tree walk
// alone) is built by scattering through the rank table instead of
// re-sorting. Folds sum exact integers, so engine results are
// bit-identical to evaluating every cell from scratch
// (SweepOptions::reuse = false, which is also the speedup baseline).
//
// docs/architecture.md describes the stage DAG, key derivations, and
// invalidation rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/acd.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace sfc::core {

// ------------------------------------------------------------- stage plumbing

/// The pipeline stages whose artifacts the engine plans, counts and
/// shares between cells (kFold counts once per enabled model per cell,
/// however many cells share it).
enum class SweepStage : unsigned {
  kSample = 0,       ///< (distribution, n, level, seed, trial) -> particles
  kCanonical,        ///< (sample) -> cell-sorted copy + occupancy grid
  kOrdering,         ///< (sample, particle order) -> curve-rank table
  kInstance,         ///< (sample, particle order) -> AcdInstance (FFI only)
  kNfiHistogram,     ///< (sample, order, p, radius, norm) -> rank-pair hist
  kFfiHistogram,     ///< (instance, p) -> FFI histograms
  kTopology,         ///< (kind, p [, processor order]) -> Topology
  kFold,             ///< (histogram, topology) -> CommTotals
};

inline constexpr unsigned kSweepStageCount = 8;

std::string_view sweep_stage_name(SweepStage stage) noexcept;

struct StageCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  /// Fraction of requests answered by an artifact already planned (0
  /// when the stage never ran). Published as the
  /// sweep.stage.<name>.hit_ratio metrics gauge.
  double hit_ratio() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Artifact accounting for one engine run. The counters are fixed by the
/// plan: the first request for a (stage, key) is a miss — a build or a
/// store load — and every later request a hit; kFold counts one miss per
/// enabled model per cell. Only a node that must be built requests its
/// inputs, so a stored fold leaves its histograms uncounted, and so on
/// upstream. They depend only on the study (and the
/// store's contents), never on the thread count. `bytes` sums the
/// artifacts' memory_bytes(); `peak_bytes` is measured, so under a pool
/// it depends on scheduling. See
/// docs/architecture.md, "Cell-graph scheduling".
struct SweepStats {
  StageCounters stages[kSweepStageCount];
  std::size_t bytes = 0;       ///< total bytes of artifacts materialized
  std::size_t peak_bytes = 0;  ///< high-water mark of live artifact bytes

  const StageCounters& stage(SweepStage s) const noexcept {
    return stages[static_cast<unsigned>(s)];
  }
  StageCounters& stage(SweepStage s) noexcept {
    return stages[static_cast<unsigned>(s)];
  }
  std::uint64_t total_hits() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : stages) n += c.hits;
    return n;
  }
  std::uint64_t total_misses() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : stages) n += c.misses;
    return n;
  }
};

/// 64-bit content-hash keys: splitmix64-mixed field combination. Not
/// cryptographic — collisions across the handful of artifacts in one
/// sweep are vanishingly unlikely and would only trade a result for an
/// identically-typed one of the same stage.
constexpr std::uint64_t sweep_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t sweep_key(std::uint64_t h, std::uint64_t v) noexcept {
  return sweep_mix(h ^ sweep_mix(v));
}

// ------------------------------------------------------------- study grammar

struct AcdCell {
  double nfi_acd = 0.0;
  double ffi_acd = 0.0;
};

/// Per-cell across-trial statistics (populated for every trial count;
/// with trials == 1 the CI is zero).
struct AcdCellStats {
  util::RunningStats nfi;
  util::RunningStats ffi;
};

/// Declarative description of one ACD sweep: scalar pipeline parameters
/// plus the grid axes. Every combination of {distribution x
/// particle_curve x proc_count x processor_order x topology} is one
/// cell; trials average into each cell. Each paper sweep is one value:
/// Tables I/II sweep both curve roles (processor_curves =
/// particle_curves), Figure 6 sweeps topologies and Figure 7 proc_counts
/// with the curves paired (processor_curves empty).
struct Study {
  std::string name = "study";
  std::size_t particles = 250000;
  unsigned level = 10;  ///< spatial resolution: 2^level per dimension
  unsigned radius = 1;  ///< near-field neighborhood radius
  fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
  std::uint64_t seed = 1;
  unsigned trials = 1;
  bool near_field = true;  ///< evaluate the NFI model
  bool far_field = true;   ///< evaluate the FFI model

  std::vector<dist::DistKind> distributions{dist::DistKind::kUniform};
  std::vector<CurveKind> particle_curves{kPaperCurves, kPaperCurves + 4};
  /// Processor-order axis. Empty means *paired* mode: each cell ranks the
  /// processors with its own particle curve (Figures 6/7); non-empty
  /// sweeps the full cross product (Tables I/II).
  std::vector<CurveKind> processor_curves{};
  std::vector<topo::TopologyKind> topologies{topo::TopologyKind::kTorus};
  std::vector<topo::Rank> proc_counts{65536};

  bool paired_curves() const noexcept { return processor_curves.empty(); }
  std::size_t processor_order_count() const noexcept {
    return paired_curves() ? 1 : processor_curves.size();
  }
  std::size_t cell_count() const noexcept {
    return distributions.size() * particle_curves.size() *
           proc_counts.size() * processor_order_count() * topologies.size();
  }
};

/// Grid coordinates of one cell (indices into the Study's axis vectors).
/// In paired mode processor_curve mirrors particle_curve.
struct StudyCellRef {
  std::size_t distribution = 0;
  unsigned trial = 0;
  std::size_t particle_curve = 0;
  std::size_t proc_count = 0;
  std::size_t processor_curve = 0;
  std::size_t topology = 0;
};

/// Per-cell progress sink (long paper-scale runs report each cell).
/// `elapsed_ms` is the wall time of that cell's fold work, measured on
/// the obs span clock (obs::now_ns) so progress lines and exported
/// traces can never disagree about a cell's duration.
using CellProgressFn =
    std::function<void(const StudyCellRef&, double elapsed_ms)>;

class ArtifactStore;

struct SweepOptions {
  /// Parallelism, one level of it. With reuse the pool runs plan nodes,
  /// and a node's kernels run on the thread that runs the node; without
  /// reuse the pool is unused and every cell runs on the calling thread.
  util::ThreadPool* pool = nullptr;
  /// false = evaluate every cell from scratch (no artifact reuse): the
  /// legacy per-cell pipeline, kept as the equivalence oracle and the
  /// speedup baseline. Results are bit-identical either way.
  bool reuse = true;
  CellProgressFn progress;
  /// Optional disk tier (reuse path only): every persistable artifact the
  /// plan requests is probed here before it is planned as a build (folds
  /// first, so a stored fold is the only file its cell reads), and every
  /// one this run builds is written back right after its build. Results
  /// are bit-identical with or without a store, warm or cold.
  ArtifactStore* store = nullptr;
};

struct StudyResult {
  Study study;
  /// Across-trial means, row-major over
  /// [distribution][particle_curve][proc_count][processor_order][topology].
  std::vector<AcdCell> cells;
  /// Matching across-trial statistics (same indexing).
  std::vector<AcdCellStats> stats;
  /// Artifact accounting (all-zero when SweepOptions::reuse was false).
  SweepStats sweep;

  std::size_t index(std::size_t d, std::size_t pc, std::size_t pi,
                    std::size_t rc, std::size_t ti) const noexcept {
    return (((d * study.particle_curves.size() + pc) *
                 study.proc_counts.size() +
             pi) *
                study.processor_order_count() +
            rc) *
               study.topologies.size() +
           ti;
  }
  const AcdCell& cell(std::size_t d, std::size_t pc, std::size_t pi,
                      std::size_t rc, std::size_t ti) const noexcept {
    return cells[index(d, pc, pi, rc, ti)];
  }
  const AcdCellStats& cell_stats(std::size_t d, std::size_t pc,
                                 std::size_t pi, std::size_t rc,
                                 std::size_t ti) const noexcept {
    return stats[index(d, pc, pi, rc, ti)];
  }
};

/// Execute a study. Cells are visited in row-major grid order with
/// trials outermost per distribution; artifact reuse and fold
/// parallelism never change the arithmetic (integer histogram sums
/// commute), only the wall clock. Invalid parameters surface as
/// std::invalid_argument from the coordinating thread: trials == 0, a
/// level above max_level<2>() or more particles than the 4^level grid
/// cells before any work starts, and invalid grid axes (e.g. a torus
/// size that is not a power of 4) when their topology is built. The
/// first exception a stage build throws (e.g. std::runtime_error for a
/// malformed store payload) is raised from the coordinating thread too,
/// after every task of the run has finished.
StudyResult run_study(const Study& study, const SweepOptions& options = {});

// ---------------------------------------------------------------- dynamics

/// One dynamics trajectory: a sampled 2-D configuration evolved by
/// `steps` drift timesteps (core::drift_moves), evaluated per step under
/// three reordering policies — never re-order (frozen, the incremental
/// engine), re-sort every step (the from-scratch AcdInstance baseline),
/// and lazy re-order at `repartition_threshold` (the advisor column).
struct DynamicsStudy {
  std::string name = "dynamics";
  std::size_t particles = 10000;
  unsigned level = 7;
  unsigned radius = 1;
  fmm::NeighborNorm norm = fmm::NeighborNorm::kChebyshev;
  std::uint64_t seed = 1;
  CurveKind curve = CurveKind::kHilbert;
  topo::TopologyKind topology = topo::TopologyKind::kTorus;
  dist::DistKind distribution = dist::DistKind::kUniform;
  topo::Rank procs = 64;
  unsigned steps = 16;
  /// Fraction of particles attempting a drift step per timestep.
  double move_fraction = 1.0;
  /// Lazy policy's displaced-fraction trigger (the frozen policy always
  /// runs with re-partitioning disabled).
  double repartition_threshold = 0.25;
};

/// Exact per-step totals under the three policies, plus the advisor
/// signals. ACD values derive from the CommTotals (`.acd()`); integers
/// are stored so golden tests can pin the trajectory bit-exactly.
struct DynamicsStepResult {
  std::size_t moves = 0;  ///< effective moves this step (no-ops excluded)
  CommTotals frozen_nfi;
  fmm::FfiTotals frozen_ffi;
  CommTotals reorder_nfi;
  fmm::FfiTotals reorder_ffi;
  CommTotals lazy_nfi;
  fmm::FfiTotals lazy_ffi;
  /// Frozen engine's displaced fraction after this step (monotone-ish
  /// drift signal the advisor thresholds against).
  double frozen_displaced = 0.0;
  double lazy_displaced = 0.0;
  /// Cumulative re-sorts the lazy policy has performed through this step.
  std::size_t lazy_repartitions = 0;
};

struct DynamicsResult {
  DynamicsStudy study;
  std::vector<DynamicsStepResult> steps;
};

/// Evolve one dynamics trajectory, serially on the calling thread.
/// Deterministic in the study parameters. Invalid parameters (e.g. a
/// torus size that is not a power of 4) surface as std::invalid_argument.
DynamicsResult run_dynamics(const DynamicsStudy& study);

}  // namespace sfc::core
