#include "core/sweep.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <deque>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/artifact_store.hpp"
#include "core/dynamic_acd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/radix_sort.hpp"
#include "util/rng.hpp"

namespace sfc::core {

std::string_view sweep_stage_name(SweepStage stage) noexcept {
  switch (stage) {
    case SweepStage::kSample:
      return "sample";
    case SweepStage::kCanonical:
      return "canonical";
    case SweepStage::kOrdering:
      return "ordering";
    case SweepStage::kInstance:
      return "instance";
    case SweepStage::kNfiHistogram:
      return "nfi_histogram";
    case SweepStage::kFfiHistogram:
      return "ffi_histogram";
    case SweepStage::kTopology:
      return "topology";
    case SweepStage::kFold:
      return "fold";
  }
  return "unknown";
}

namespace {

/// Chain a field list into one 64-bit content key.
std::uint64_t key_of(std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = 0x5fc4a51b9ce2ad17ull;
  for (const std::uint64_t v : fields) h = sweep_key(h, v);
  return h;
}

/// Publish the run's artifact accounting into the metrics registry: the
/// live-bytes high-water mark and one hit-ratio gauge per pipeline stage.
/// Gauges are set (not accumulated), so the snapshot always describes the
/// most recent run in this process.
void publish_sweep_metrics(const SweepStats& stats) {
  if (!obs::metrics_enabled()) return;
  obs::Registry& reg = obs::Registry::instance();
  reg.gauge("sweep.cache.peak_bytes")
      .set(static_cast<double>(stats.peak_bytes));
  for (unsigned i = 0; i < kSweepStageCount; ++i) {
    const auto stage = static_cast<SweepStage>(i);
    const StageCounters& c = stats.stage(stage);
    if (c.hits + c.misses == 0) continue;  // stage never ran in this study
    const std::string base =
        "sweep.stage." + std::string(sweep_stage_name(stage));
    reg.gauge(base + ".hit_ratio").set(c.hit_ratio());
  }
}

/// Span names per stage (string literals: obs::Span requires
/// static lifetime). Indexed like SweepStats::stages.
constexpr const char* kStageSpanNames[kSweepStageCount] = {
    "sweep/sample",        "sweep/canonical",     "sweep/ordering",
    "sweep/instance",      "sweep/nfi_histogram", "sweep/ffi_histogram",
    "sweep/topology",      "sweep/fold",
};

constexpr const char* stage_span_name(SweepStage stage) noexcept {
  return kStageSpanNames[static_cast<unsigned>(stage)];
}

/// Sentinel ranking field for topologies with a natural labeling (the
/// paper applies SFC ranking only to mesh/torus) — their artifacts are
/// shared across processor-order curves.
constexpr std::uint64_t kNoRanking = ~std::uint64_t{0};

bool topology_uses_ranking(topo::TopologyKind kind) noexcept {
  return kind == topo::TopologyKind::kMesh ||
         kind == topo::TopologyKind::kTorus;
}

using Sample2 = std::vector<Point2>;

/// Cell-sorted copy of a sample plus its occupancy grid: the
/// curve-independent spatial state shared by every NFI histogram and
/// instance build of one (distribution, trial).
struct CanonicalSample2 {
  std::vector<Point2> particles;
  fmm::OccupancyGrid<2> grid;
  CanonicalSample2(std::vector<Point2> pts, unsigned level)
      : particles(std::move(pts)), grid(particles, level) {}
  std::size_t memory_bytes() const noexcept {
    return particles.capacity() * sizeof(Point2) + grid.memory_bytes();
  }
};

/// Argsort policy: the dense scatter walks the whole 4^level slot array
/// (a memset plus a full scan), so it only pays while the grid is within
/// a small factor of the sample size; past that — and always beyond the
/// dense-bits cap — a radix argsort over just the occupied keys is the
/// linear-time path.
bool dense_argsort_pays(unsigned level, std::size_t n) noexcept {
  if (2u * level > fmm::OccupancyGrid<2>::kDenseBits) return false;
  const std::uint64_t cells = grid_size<2>(level);
  return cells <= (std::uint64_t{1} << 16) || cells <= 4 * std::uint64_t{n};
}

/// Particles of `raw` sorted by row-major packed cell id. The samplers
/// place every particle in a distinct cell, so the order is unique — a
/// linear dense scatter by cell id on compact grids, a stable radix sort
/// of (key, index) pairs beyond. Both produce the same unique
/// permutation, so the canonical artifact is independent of the path.
std::vector<Point2> canonical_order(const Sample2& raw, unsigned level) {
  std::vector<Point2> out;
  out.reserve(raw.size());
  if (dense_argsort_pays(level, raw.size())) {
    std::vector<std::int32_t> slot(
        static_cast<std::size_t>(grid_size<2>(level)), -1);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      slot[pack(raw[i], level)] = static_cast<std::int32_t>(i);
    }
    for (const std::int32_t i : slot) {
      if (i >= 0) out.push_back(raw[static_cast<std::size_t>(i)]);
    }
    return out;
  }
  std::vector<util::KeyIndex> items(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    items[i] = util::KeyIndex{pack(raw[i], level),
                              static_cast<std::uint32_t>(i)};
  }
  {
    const obs::Span span("sweep/canonical/radix");
    util::radix_sort_pairs(items);
  }
  for (const util::KeyIndex& it : items) out.push_back(raw[it.index]);
  return out;
}

/// Rank table of one curve over a canonical sample: rank[i] is the
/// position canonical particle i occupies in the curve-sorted order.
struct Ordering2 {
  std::vector<std::uint32_t> rank;
  std::size_t memory_bytes() const noexcept {
    return rank.capacity() * sizeof(std::uint32_t);
  }
};

/// Curve indices are a bijection between cells and [0, 4^level), and the
/// particles occupy distinct cells, so the argsort is unique and equals
/// the stable_sort the sorting AcdInstance constructor performs. Keys
/// come from the batched encode (one virtual call for the whole sample);
/// the argsort is a dense scatter + scan on compact grids and a stable
/// LSD radix sort of (key, index) pairs beyond.
Ordering2 make_ordering(const std::vector<Point2>& canonical, unsigned level,
                        const Curve<2>& curve) {
  const std::vector<std::uint64_t> keys = indices_of(curve, canonical, level);
  Ordering2 out;
  out.rank.resize(canonical.size());
  if (dense_argsort_pays(level, canonical.size())) {
    std::vector<std::int32_t> slot(
        static_cast<std::size_t>(grid_size<2>(level)), -1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      slot[keys[i]] = static_cast<std::int32_t>(i);
    }
    std::uint32_t next = 0;
    for (const std::int32_t i : slot) {
      if (i >= 0) out.rank[static_cast<std::size_t>(i)] = next++;
    }
    return out;
  }
  std::vector<util::KeyIndex> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    items[i] = util::KeyIndex{keys[i], static_cast<std::uint32_t>(i)};
  }
  {
    const obs::Span span("sweep/order/radix");
    util::radix_sort_pairs(items);
  }
  for (std::uint32_t k = 0; k < items.size(); ++k) {
    out.rank[items[k].index] = k;
  }
  return out;
}

// ------------------------------------------------------------- cell graph

/// A materialized stage artifact and the bytes it holds.
struct Artifact {
  std::shared_ptr<const void> value;
  std::size_t bytes = 0;
};

template <typename T>
Artifact artifact_of(std::shared_ptr<const T> value) {
  const std::size_t bytes = value->memory_bytes();
  return Artifact{std::move(value), bytes};
}

/// One node of the study's task graph: a stage artifact to materialize,
/// either by computing it or by deserializing a store payload validated
/// and pinned at plan time. The coordinator creates every node and edge
/// during the plan walk; execution only runs builds, moves the two
/// counters and sets or frees `out` (ordered by the dependency
/// hand-off).
struct PlanNode {
  PlanNode(SweepStage s, std::uint64_t k) : stage(s), key(k) {}

  SweepStage stage;
  std::uint64_t key;    ///< un-mixed stage key (the store address)
  bool loaded = false;  ///< `build` deserializes a store payload
  /// Materializer of `out` from the outputs of `deps`; runs exactly once,
  /// on whichever thread the scheduler hands the node to, and is dropped
  /// with its captures afterwards.
  std::function<Artifact(const PlanNode&)> build;
  Artifact out;
  std::vector<PlanNode*> deps;       ///< inputs
  std::vector<PlanNode*> consumers;  ///< nodes waiting on this build
  std::atomic<unsigned> pending{0};  ///< unfinished producers
  std::atomic<unsigned> users{0};    ///< unfinished consumers of `out`
};

template <typename T>
std::shared_ptr<const T> out_as(const PlanNode* node) {
  return std::static_pointer_cast<const T>(node->out.value);
}

/// Output of a fold node: the cell's ACD contributions plus the fold's
/// span-clock wall time for the progress sink.
struct FoldOut {
  double nfi_acd = 0.0;
  double ffi_acd = 0.0;
  bool has_nfi = false;
  bool has_ffi = false;
  double ms = 0.0;
  std::size_t memory_bytes() const noexcept { return sizeof(FoldOut); }
};

/// One cell of the drain pass (results, statistics, progress) in grid
/// order.
struct DrainJob {
  std::size_t index = 0;
  StudyCellRef ref;
  PlanNode* fold = nullptr;
};

/// Stages with an on-disk representation. kSample is superseded by
/// kCanonical (same content, already cell-sorted); kTopology is cheap to
/// rebuild and validation must stay on the coordinator. kFold persists
/// its two doubles, and the plan requests a fold's inputs only when the
/// fold itself must be built, so a warm rerun maps and decodes nothing
/// but those 24-byte payloads; the upstream files serve only the folds
/// the store lacks.
bool store_persistable(SweepStage stage) noexcept {
  switch (stage) {
    case SweepStage::kCanonical:
    case SweepStage::kOrdering:
    case SweepStage::kInstance:
    case SweepStage::kNfiHistogram:
    case SweepStage::kFfiHistogram:
    case SweepStage::kFold:
      return true;
    default:
      return false;
  }
}

void append_raw(std::vector<std::uint8_t>& out, const void* data,
                std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  if (n != 0) std::memcpy(out.data() + at, data, n);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_raw(out, &v, sizeof v);
}

bool read_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
              std::uint64_t& v) {
  if (offset > size || size - offset < 8) return false;
  std::memcpy(&v, data + offset, 8);
  offset += 8;
  return true;
}

/// Array payload: a u64 element count, then the elements' bytes.
template <typename T>
void append_array(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  append_u64(out, v.size());
  append_raw(out, v.data(), v.size() * sizeof(T));
}

/// Inverse of append_array over a whole payload; nullopt when the count
/// and the byte length disagree.
template <typename T>
std::optional<std::vector<T>> read_array(const std::uint8_t* data,
                                         std::size_t size) {
  std::size_t off = 0;
  std::uint64_t count = 0;
  if (!read_u64(data, size, off, count) || (size - off) % sizeof(T) != 0 ||
      (size - off) / sizeof(T) != count) {
    return std::nullopt;
  }
  std::vector<T> out(static_cast<std::size_t>(count));
  if (!out.empty()) std::memcpy(out.data(), data + off, size - off);
  return out;
}

/// Store payload of one persistable artifact (host-endian; provenance in
/// the store header ties files to one build, so portability is not a
/// goal). Canonical and instance payloads are the particle arrays — the
/// occupancy grid and cell tree rebuild deterministically from them.
std::vector<std::uint8_t> serialize_artifact(SweepStage stage,
                                             const void* value) {
  std::vector<std::uint8_t> out;
  switch (stage) {
    case SweepStage::kCanonical:
      append_array(out, static_cast<const CanonicalSample2*>(value)->particles);
      break;
    case SweepStage::kOrdering:
      append_array(out, static_cast<const Ordering2*>(value)->rank);
      break;
    case SweepStage::kInstance:
      append_array(out, static_cast<const AcdInstance<2>*>(value)->particles());
      break;
    case SweepStage::kNfiHistogram:
      rank_pairs_serialize(*static_cast<const RankPairAccumulator*>(value),
                           out);
      break;
    case SweepStage::kFfiHistogram:
      fmm::ffi_histograms_serialize(
          *static_cast<const fmm::FfiHistograms*>(value), out);
      break;
    case SweepStage::kFold: {
      // The ACD contributions as exact bit patterns; the fold's wall
      // time is a property of the run, not the artifact, and is
      // re-stamped with the load time on the way back in.
      const auto* fold = static_cast<const FoldOut*>(value);
      append_u64(out, (fold->has_nfi ? 1ull : 0ull) |
                          (fold->has_ffi ? 2ull : 0ull));
      append_u64(out, std::bit_cast<std::uint64_t>(fold->nfi_acd));
      append_u64(out, std::bit_cast<std::uint64_t>(fold->ffi_acd));
      break;
    }
    default:
      break;
  }
  return out;
}

/// Inverse of serialize_artifact: the artifact a store payload encodes,
/// or a null value when the payload does not decode.
Artifact deserialize_artifact(SweepStage stage, const std::uint8_t* data,
                              std::size_t size, unsigned level) {
  switch (stage) {
    case SweepStage::kCanonical: {
      auto pts = read_array<Point2>(data, size);
      if (!pts) return {};
      return artifact_of(
          std::make_shared<const CanonicalSample2>(std::move(*pts), level));
    }
    case SweepStage::kOrdering: {
      auto rank = read_array<std::uint32_t>(data, size);
      if (!rank) return {};
      return artifact_of(
          std::make_shared<const Ordering2>(Ordering2{std::move(*rank)}));
    }
    case SweepStage::kInstance: {
      auto pts = read_array<Point2>(data, size);
      if (!pts) return {};
      return artifact_of(std::make_shared<const AcdInstance<2>>(
          AcdInstance<2>::from_sorted(std::move(*pts), level)));
    }
    case SweepStage::kNfiHistogram: {
      std::size_t off = 0;
      auto acc = rank_pairs_deserialize(data, size, off);
      if (!acc || off != size) return {};
      return artifact_of(
          std::make_shared<const RankPairAccumulator>(std::move(*acc)));
    }
    case SweepStage::kFfiHistogram: {
      std::size_t off = 0;
      auto hist = fmm::ffi_histograms_deserialize(data, size, off);
      if (!hist || off != size) return {};
      return artifact_of(
          std::make_shared<const fmm::FfiHistograms>(std::move(*hist)));
    }
    case SweepStage::kFold: {
      const std::uint64_t t0 = obs::now_ns();
      std::size_t off = 0;
      std::uint64_t flags = 0, nfi_bits = 0, ffi_bits = 0;
      if (!read_u64(data, size, off, flags) ||
          !read_u64(data, size, off, nfi_bits) ||
          !read_u64(data, size, off, ffi_bits) || off != size ||
          (flags & ~3ull) != 0) {
        return {};
      }
      auto out = std::make_shared<FoldOut>();
      out->has_nfi = (flags & 1ull) != 0;
      out->has_ffi = (flags & 2ull) != 0;
      out->nfi_acd = std::bit_cast<double>(nfi_bits);
      out->ffi_acd = std::bit_cast<double>(ffi_bits);
      out->ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
      return artifact_of(std::shared_ptr<const FoldOut>(std::move(out)));
    }
    default:
      return {};
  }
}

/// Runs planned nodes: builds each one (unless an earlier build threw),
/// saves what it built to the store, hands completion on to consumers,
/// and frees every output whose last consumer has finished. Shared by
/// the serial and the pool schedule.
class Executor {
 public:
  explicit Executor(ArtifactStore* store) : store_(store) {}

  /// Materialize `n` on this thread and charge its bytes; a persistable
  /// artifact built here (not loaded) is written to the store right away.
  void build(PlanNode& n) {
    const std::function<Artifact(const PlanNode&)> fn =
        std::exchange(n.build, nullptr);
    n.out = fn(n);
    if (n.stage != SweepStage::kFold) {
      bytes_.fetch_add(n.out.bytes, std::memory_order_relaxed);
      const std::size_t live =
          live_.fetch_add(n.out.bytes, std::memory_order_relaxed) +
          n.out.bytes;
      std::size_t peak = peak_.load(std::memory_order_relaxed);
      while (live > peak && !peak_.compare_exchange_weak(
                                peak, live, std::memory_order_relaxed)) {
      }
    }
    if (store_ != nullptr && !n.loaded && store_persistable(n.stage) &&
        !store_->contains(n.stage, n.key)) {
      const std::vector<std::uint8_t> payload =
          serialize_artifact(n.stage, n.out.value.get());
      store_->save(n.stage, n.key, payload.data(), payload.size());
    }
  }

  /// build() a ready node, recording the first exception of the run
  /// instead of throwing; then pass `ready` each consumer this was the
  /// last producer of, and free inputs nobody needs any more. Nodes after
  /// a failure skip their build but still count down, so the graph
  /// always drains.
  template <typename ReadyFn>
  void run(PlanNode& n, ReadyFn&& ready) {
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        build(n);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_mutex_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_release);
      }
    }
    n.build = nullptr;
    for (PlanNode* c : n.consumers) {
      // acq_rel: the consumer's build must observe every producer output,
      // whichever thread decrements last.
      if (c->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) ready(*c);
    }
    for (PlanNode* d : n.deps) {
      if (d->users.fetch_sub(1, std::memory_order_acq_rel) == 1) release(*d);
    }
    // Nothing reads an unconsumed artifact again; folds wait for the
    // drain.
    if (n.consumers.empty() && n.stage != SweepStage::kFold) release(n);
  }

  /// Rethrow the first build exception, if any (after the join).
  void rethrow_failure() const {
    if (error_) std::rethrow_exception(error_);
  }

  std::size_t bytes() const noexcept { return bytes_.load(); }
  std::size_t peak_bytes() const noexcept { return peak_.load(); }

 private:
  void release(PlanNode& n) {
    live_.fetch_sub(n.out.bytes, std::memory_order_relaxed);
    n.out = Artifact{};
  }

  ArtifactStore* store_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

/// Execute the planned graph: roots first, completions cascading through
/// the dependency counters. Serially the ready nodes form a stack, so
/// each (distribution, trial) row runs to its folds — and frees its
/// artifacts — before the next row's sample is drawn; on a pool every
/// ready node is a task and the coordinator helps drain the queue.
void execute(std::deque<PlanNode>& nodes, Executor& exec,
             util::ThreadPool* pool) {
  std::vector<PlanNode*> roots;
  std::size_t runnable = 0;
  for (PlanNode& n : nodes) {
    if (!n.build) continue;  // a topology, built while planning
    ++runnable;
    if (n.pending.load(std::memory_order_relaxed) == 0) roots.push_back(&n);
  }
  if (pool == nullptr || pool->size() <= 1) {
    // Reversed, so the first row's root is on top of the stack.
    std::vector<PlanNode*> ready(roots.rbegin(), roots.rend());
    while (!ready.empty()) {
      PlanNode* n = ready.back();
      ready.pop_back();
      exec.run(*n, [&ready](PlanNode& c) { ready.push_back(&c); });
    }
    return;
  }
  struct Task {
    Executor* exec;
    util::ThreadPool* pool;
    util::Latch* done;
    void operator()(PlanNode& n) const {
      exec->run(n, [this](PlanNode& c) {
        pool->submit([task = *this, &c] { task(c); });
      });
      done->count_down();
    }
  };
  util::Latch done(runnable);
  const Task task{&exec, pool, &done};
  // Roots were collected before any is submitted: once a root runs, its
  // completions count consumers down to zero, and a live scan would
  // submit those twice.
  for (PlanNode* n : roots) pool->submit([task, n] { task(*n); });
  done.wait_and_help(*pool);
}

/// The artifact-reusing engine path: plan the whole study as a task
/// graph on the coordinator (grid order, each cell's fold first and its
/// inputs on demand), execute it, then drain the cells in grid order —
/// so independent cells execute concurrently end-to-end while results,
/// statistics, progress order and the SweepStats counters stay the same
/// at every thread count.
StudyResult run_reuse(const Study& s, const SweepOptions& o) {
  StudyResult result;
  result.study = s;
  result.cells.assign(s.cell_count(), AcdCell{});
  result.stats.assign(s.cell_count(), AcdCellStats{});

  ArtifactStore* store = o.store;
  const double trials = s.trials;
  const std::size_t nrc = s.processor_order_count();
  Executor exec(store);

  // Ordering-stage throughput accounting for the
  // sweep.stage.order.ns_per_particle gauge: every ordering build adds
  // its span-clock wall time and particle count.
  std::atomic<std::uint64_t> order_build_ns{0};
  std::atomic<std::uint64_t> order_build_particles{0};

  // ---- plan -------------------------------------------------------
  std::deque<PlanNode> nodes;  // deque: node addresses must be stable
  std::vector<DrainJob> drain;
  std::array<std::unordered_map<std::uint64_t, PlanNode*>, kSweepStageCount>
      planned;
  using Deps = std::vector<PlanNode*>;
  // The artifact (stage, key), planned once: the first request makes the
  // node — a store load when the store holds the key, else `build` after
  // the producers `deps()` requests — and counts a miss; every later
  // request returns the same node and counts a hit. Only a node that must
  // be built requests its producers, so a stored artifact prunes the whole
  // subgraph behind it. Folds are counted per cell at their site instead.
  auto plan = [&](SweepStage stage, std::uint64_t key, const auto& deps,
                  std::function<Artifact(const PlanNode&)> build)
      -> PlanNode* {
    auto [it, fresh] =
        planned[static_cast<unsigned>(stage)].try_emplace(key, nullptr);
    if (stage != SweepStage::kFold) {
      StageCounters& c = result.sweep.stage(stage);
      ++(fresh ? c.misses : c.hits);
    }
    if (!fresh) return it->second;
    PlanNode* node = &nodes.emplace_back(stage, key);
    it->second = node;
    if (store != nullptr && store_persistable(stage)) {
      if (auto mapping = store->load(stage, key)) {
        node->loaded = true;
        node->build =
            [stage, level = s.level,
             payload = std::make_shared<const ArtifactStore::Mapping>(
                 std::move(*mapping))](const PlanNode&) {
              const obs::Span span("sweep/store/load");
              Artifact a = deserialize_artifact(stage, payload->data(),
                                                payload->size(), level);
              // The checksum validated the exact bytes some producer
              // wrote, so a payload that does not decode is a producer
              // bug or a forged file. Recomputing around it would hide
              // that; run_study raises it instead.
              if (a.value == nullptr) {
                throw std::runtime_error("artifact store: malformed payload");
              }
              return a;
            };
        return node;
      }
    }
    node->build = std::move(build);
    for (PlanNode* dep : deps()) {
      node->deps.push_back(dep);
      dep->users.fetch_add(1, std::memory_order_relaxed);
      if (dep->out.value == nullptr) {  // not materialized at plan time
        dep->consumers.push_back(node);
        node->pending.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return node;
  };

  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    for (unsigned t = 0; t < s.trials; ++t) {
      const std::uint64_t sample_key =
          key_of({static_cast<std::uint64_t>(s.distributions[d]), s.particles,
                  s.level, s.seed, t});

      // Canonical spatial state for this (distribution, trial): the
      // cell-sorted sample and its occupancy grid, which every curve of
      // the row shares. Requested once per row, by the first ordering,
      // instance or NFI histogram of the row that has to be built; it
      // requests the sample only when it has to be built itself.
      PlanNode* canonical_node = nullptr;
      const auto canonical = [&] {
        if (canonical_node != nullptr) return canonical_node;
        const auto sample = [&] {
          return Deps{plan(
              SweepStage::kSample, sample_key, [] { return Deps{}; },
              [dk = s.distributions[d], count = s.particles, level = s.level,
               seed = util::substream_seed(s.seed, t)](const PlanNode&) {
                const obs::Span span(stage_span_name(SweepStage::kSample));
                dist::SampleConfig cfg;
                cfg.count = count;
                cfg.level = level;
                cfg.seed = seed;
                auto pts = std::make_shared<const Sample2>(
                    dist::sample_particles<2>(dk, cfg));
                const std::size_t bytes = pts->capacity() * sizeof(Point2);
                return Artifact{std::move(pts), bytes};
              })};
        };
        canonical_node = plan(
            SweepStage::kCanonical, sample_key, sample,
            [level = s.level](const PlanNode& n) {
              const obs::Span span(stage_span_name(SweepStage::kCanonical));
              const auto raw = out_as<Sample2>(n.deps[0]);
              return artifact_of(std::make_shared<const CanonicalSample2>(
                  canonical_order(*raw, level), level));
            });
        return canonical_node;
      };

      for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
        const CurveKind pkind = s.particle_curves[pc];
        const std::uint64_t curve_key =
            sweep_key(sample_key, static_cast<std::uint64_t>(pkind));

        // Ordering and instance of this (row, curve), each requested
        // once, by the first node that has to be built and reads it.
        PlanNode* ordering_node = nullptr;
        const auto ordering = [&] {
          if (ordering_node != nullptr) return ordering_node;
          ordering_node = plan(
              SweepStage::kOrdering, curve_key,
              [&] { return Deps{canonical()}; },
              [pkind, level = s.level, &order_build_ns,
               &order_build_particles](const PlanNode& n) {
                const obs::Span span(stage_span_name(SweepStage::kOrdering));
                const std::uint64_t t0 = obs::now_ns();
                const auto canon = out_as<CanonicalSample2>(n.deps[0]);
                const auto curve = make_curve<2>(pkind);
                auto built = std::make_shared<const Ordering2>(
                    make_ordering(canon->particles, level, *curve));
                order_build_ns.fetch_add(obs::now_ns() - t0,
                                         std::memory_order_relaxed);
                order_build_particles.fetch_add(canon->particles.size(),
                                                std::memory_order_relaxed);
                return artifact_of(std::move(built));
              });
          return ordering_node;
        };
        const auto canonical_and_ordering = [&] {
          return Deps{canonical(), ordering()};
        };

        // The FFI tree walk is the one consumer that needs the particles
        // physically in curve order; scatter them through the rank table
        // instead of re-sorting (the sequence is identical). Near-field-
        // only studies never request an instance at all.
        PlanNode* instance_node = nullptr;
        const auto instance = [&] {
          if (instance_node != nullptr) return instance_node;
          instance_node = plan(
              SweepStage::kInstance, curve_key, canonical_and_ordering,
              [level = s.level](const PlanNode& n) {
                const obs::Span span(stage_span_name(SweepStage::kInstance));
                const auto canon = out_as<CanonicalSample2>(n.deps[0]);
                const auto ord = out_as<Ordering2>(n.deps[1]);
                std::vector<Point2> sorted(canon->particles.size());
                for (std::size_t i = 0; i < sorted.size(); ++i) {
                  sorted[ord->rank[i]] = canon->particles[i];
                }
                return artifact_of(std::make_shared<const AcdInstance<2>>(
                    AcdInstance<2>::from_sorted(std::move(sorted), level)));
              });
          return instance_node;
        };

        for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
          const topo::Rank procs = s.proc_counts[pi];
          const std::uint64_t nfi_key =
              key_of({curve_key, procs, s.radius,
                      static_cast<std::uint64_t>(s.norm)});
          const std::uint64_t ffi_key = key_of({curve_key, procs});

          // The histograms, requested by a fold that has to be built.
          const auto histograms = [&] {
            Deps hists;
            if (s.near_field) {
              hists.push_back(plan(
                  SweepStage::kNfiHistogram, nfi_key, canonical_and_ordering,
                  [procs, radius = s.radius,
                   norm = s.norm](const PlanNode& n) {
                    const obs::Span span(
                        stage_span_name(SweepStage::kNfiHistogram));
                    const auto canon = out_as<CanonicalSample2>(n.deps[0]);
                    const auto ord = out_as<Ordering2>(n.deps[1]);
                    // Owner of canonical particle i: the partition chunk
                    // its curve rank falls in.
                    const fmm::Partition part(canon->particles.size(), procs);
                    const std::vector<topo::Rank> by_rank = part.owner_table();
                    std::vector<topo::Rank> owners(canon->particles.size());
                    for (std::size_t i = 0; i < owners.size(); ++i) {
                      owners[i] = by_rank[ord->rank[i]];
                    }
                    auto hist = std::make_shared<const RankPairAccumulator>(
                        fmm::nfi_histogram_owners<2>(canon->particles,
                                                     canon->grid, owners,
                                                     procs, radius, norm));
                    hist->seal();
                    return artifact_of(std::move(hist));
                  }));
            }
            if (s.far_field) {
              hists.push_back(plan(
                  SweepStage::kFfiHistogram, ffi_key,
                  [&] { return Deps{instance()}; },
                  [procs](const PlanNode& n) {
                    const obs::Span span(
                        stage_span_name(SweepStage::kFfiHistogram));
                    const auto inst = out_as<AcdInstance<2>>(n.deps[0]);
                    const fmm::Partition part(inst->particles().size(),
                                              procs);
                    auto hist = std::make_shared<const fmm::FfiHistograms>(
                        fmm::ffi_histograms<2>(inst->tree(), part));
                    hist->interpolation.seal();
                    hist->interaction.seal();
                    return artifact_of(std::move(hist));
                  }));
            }
            return hists;
          };

          for (std::size_t rc = 0; rc < nrc; ++rc) {
            const std::size_t rc_index = s.paired_curves() ? pc : rc;
            const CurveKind rkind =
                s.paired_curves() ? pkind : s.processor_curves[rc];
            for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
              const topo::TopologyKind tkind = s.topologies[ti];
              const std::uint64_t topo_key =
                  key_of({static_cast<std::uint64_t>(tkind), procs,
                          topology_uses_ranking(tkind)
                              ? static_cast<std::uint64_t>(rkind)
                              : kNoRanking});
              PlanNode* topology = plan(
                  SweepStage::kTopology, topo_key, [] { return Deps{}; },
                  [tkind, procs, rkind](const PlanNode&) {
                    const obs::Span span(
                        stage_span_name(SweepStage::kTopology));
                    const auto ranking = make_curve<2>(rkind);
                    std::shared_ptr<const topo::Topology> net =
                        topo::make_topology<2>(tkind, procs, ranking.get());
                    // Payload estimate: per-rank coordinates (every paper
                    // topology folds by a factorized kernel, which holds
                    // no p×p state).
                    const std::size_t bytes = static_cast<std::size_t>(procs) *
                                              2 * sizeof(topo::Rank);
                    return Artifact{std::move(net), bytes};
                  });
              // Topologies are built here, on the coordinator: they are
              // cheap, and their argument validation must throw from
              // run_study, never inside a pool task.
              if (topology->build) exec.build(*topology);

              // The fold: keyed by its inputs (histograms ⊕ topology), so
              // cells that share them share it. Its key needs no nodes,
              // so it is planned first and a warm store answers it before
              // anything upstream is requested. Deps: the enabled
              // histograms (NFI before FFI), then the topology. Counted
              // once per enabled model per cell.
              const std::uint64_t fold_key =
                  key_of({s.near_field ? nfi_key : 0,
                          s.far_field ? ffi_key : 0, topo_key});
              PlanNode* fold = plan(
                  SweepStage::kFold, fold_key,
                  [&] {
                    Deps deps = histograms();
                    deps.push_back(topology);
                    return deps;
                  },
                  [near = s.near_field, far = s.far_field](const PlanNode& n) {
                    const std::uint64_t t0 = obs::now_ns();
                    const obs::Span span(stage_span_name(SweepStage::kFold));
                    const auto net = out_as<topo::Topology>(n.deps.back());
                    auto out = std::make_shared<FoldOut>();
                    if (near) {
                      const auto hist = out_as<RankPairAccumulator>(n.deps[0]);
                      out->nfi_acd = net->fold(hist->view()).acd();
                      out->has_nfi = true;
                    }
                    if (far) {
                      const auto hist =
                          out_as<fmm::FfiHistograms>(n.deps[near ? 1 : 0]);
                      out->ffi_acd = fmm::ffi_fold(*hist, *net).total().acd();
                      out->has_ffi = true;
                    }
                    out->ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
                    return artifact_of(
                        std::shared_ptr<const FoldOut>(std::move(out)));
                  });
              result.sweep.stage(SweepStage::kFold).misses +=
                  (s.near_field ? 1u : 0u) + (s.far_field ? 1u : 0u);
              drain.push_back(DrainJob{result.index(d, pc, pi, rc, ti),
                                       StudyCellRef{d, t, pc, pi, rc_index, ti},
                                       fold});
            }
          }
        }
      }
    }
  }

  // ---- execute ----------------------------------------------------
  execute(nodes, exec, o.pool);
  exec.rethrow_failure();
  if (store != nullptr) store->publish_metrics();

  // ---- drain ------------------------------------------------------
  // Results, statistics, and progress callbacks in plan (= grid) order:
  // the float accumulation order matches the direct path exactly, so
  // cells are bit-identical whatever the thread count.
  for (const DrainJob& job : drain) {
    const auto out = out_as<FoldOut>(job.fold);
    if (out->has_nfi) {
      result.cells[job.index].nfi_acd += out->nfi_acd / trials;
      result.stats[job.index].nfi.add(out->nfi_acd);
    }
    if (out->has_ffi) {
      result.cells[job.index].ffi_acd += out->ffi_acd / trials;
      result.stats[job.index].ffi.add(out->ffi_acd);
    }
    if (o.progress) o.progress(job.ref, out->ms);
  }

  result.sweep.bytes = exec.bytes();
  result.sweep.peak_bytes = exec.peak_bytes();
  publish_sweep_metrics(result.sweep);
  if (obs::metrics_enabled() && order_build_particles.load() > 0) {
    obs::Registry::instance()
        .gauge("sweep.stage.order.ns_per_particle")
        .set(static_cast<double>(order_build_ns.load()) /
             static_cast<double>(order_build_particles.load()));
  }
  return result;
}

/// The from-scratch path: the legacy per-cell pipeline in the same grid
/// order, serial on the calling thread — the equivalence oracle and the
/// speedup baseline.
StudyResult run_direct(const Study& s, const SweepOptions& o) {
  StudyResult result;
  result.study = s;
  result.cells.assign(s.cell_count(), AcdCell{});
  result.stats.assign(s.cell_count(), AcdCellStats{});

  const double trials = s.trials;
  const std::size_t nrc = s.processor_order_count();

  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    for (unsigned t = 0; t < s.trials; ++t) {
      dist::SampleConfig cfg;
      cfg.count = s.particles;
      cfg.level = s.level;
      cfg.seed = util::substream_seed(s.seed, t);
      const auto particles =
          dist::sample_particles<2>(s.distributions[d], cfg);
      for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
        const auto curve = make_curve<2>(s.particle_curves[pc]);
        const AcdInstance<2> instance(particles, s.level, *curve);
        for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
          const topo::Rank procs = s.proc_counts[pi];
          const fmm::Partition part(instance.particles().size(), procs);
          for (std::size_t rc = 0; rc < nrc; ++rc) {
            const std::size_t rc_index = s.paired_curves() ? pc : rc;
            const CurveKind rkind = s.paired_curves()
                                        ? s.particle_curves[pc]
                                        : s.processor_curves[rc];
            const auto ranking = make_curve<2>(rkind);
            for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
              const std::uint64_t t0 = obs::now_ns();
              const auto net = topo::make_topology<2>(s.topologies[ti],
                                                      procs, ranking.get());
              const std::size_t index = result.index(d, pc, pi, rc, ti);
              if (s.near_field) {
                const double acd =
                    instance.nfi(part, *net, s.radius, s.norm).acd();
                result.cells[index].nfi_acd += acd / trials;
                result.stats[index].nfi.add(acd);
              }
              if (s.far_field) {
                const double acd = instance.ffi(part, *net).total().acd();
                result.cells[index].ffi_acd += acd / trials;
                result.stats[index].ffi.add(acd);
              }
              if (o.progress) {
                o.progress(StudyCellRef{d, t, pc, pi, rc_index, ti},
                           static_cast<double>(obs::now_ns() - t0) / 1e6);
              }
            }
          }
        }
      }
    }
  }
  return result;
}

/// Reject scalar parameters no run can honour, on the coordinator and
/// before anything is planned: zero trials would yield an all-zero
/// result, and an impossible sample would throw from inside a task.
void check_study(const Study& s) {
  if (s.trials < 1) {
    throw std::invalid_argument("run_study: trials must be at least 1");
  }
  if (s.level > max_level<2>()) {
    throw std::invalid_argument("run_study: level " + std::to_string(s.level) +
                                " exceeds the maximum " +
                                std::to_string(max_level<2>()));
  }
  if (s.particles > grid_size<2>(s.level)) {
    throw std::invalid_argument(
        "run_study: " + std::to_string(s.particles) +
        " particles exceed the " + std::to_string(grid_size<2>(s.level)) +
        " cells of a level-" + std::to_string(s.level) + " grid");
  }
}

}  // namespace

StudyResult run_study(const Study& study, const SweepOptions& options) {
  check_study(study);
  return options.reuse ? run_reuse(study, options)
                       : run_direct(study, options);
}

// ----------------------------------------------------------------- dynamics

DynamicsResult run_dynamics(const DynamicsStudy& study) {
  DynamicsResult result;
  result.study = study;
  result.steps.reserve(study.steps);

  const auto curve = make_curve<2>(study.curve);
  const auto net =
      topo::make_topology<2>(study.topology, study.procs, curve.get());

  dist::SampleConfig cfg;
  cfg.count = study.particles;
  cfg.level = study.level;
  cfg.seed = study.seed;
  const std::vector<Point2> sample =
      dist::sample_particles<2>(study.distribution, cfg);

  DynamicAcd<2>::Options frozen_opts;
  frozen_opts.radius = study.radius;
  frozen_opts.norm = study.norm;
  frozen_opts.repartition_threshold = 2.0;  // never re-partition
  DynamicAcd<2>::Options lazy_opts = frozen_opts;
  lazy_opts.repartition_threshold = study.repartition_threshold;

  // The frozen engine never re-partitions, so its particles() stay in the
  // order its constructor sorted them into: the index space every step's
  // moves are drawn in.
  DynamicAcd<2> frozen(sample, study.level, *curve, study.procs, frozen_opts);
  DynamicAcd<2> lazy(sample, study.level, *curve, study.procs, lazy_opts);

  for (unsigned s = 0; s < study.steps; ++s) {
    const std::vector<ParticleMove2> moves = drift_moves<2>(
        frozen.particles(), study.level, study.seed, s, study.move_fraction);
    // The lazy engine's array order diverges once it re-partitions, so
    // its copy of the batch is re-keyed through the pre-move positions (a
    // move is physically position-keyed).
    std::vector<ParticleMove2> lazy_moves;
    lazy_moves.reserve(moves.size());
    for (const ParticleMove2& mv : moves) {
      const std::int32_t idx = lazy.index_at(frozen.particles()[mv.index]);
      lazy_moves.push_back({static_cast<std::uint32_t>(idx), mv.to});
    }
    frozen.move_particles(moves);
    lazy.move_particles(lazy_moves);

    DynamicsStepResult& r = result.steps.emplace_back();
    r.moves = moves.size();
    r.frozen_nfi = frozen.nfi(*net);
    r.frozen_ffi = frozen.ffi(*net);
    r.lazy_nfi = lazy.nfi(*net);
    r.lazy_ffi = lazy.ffi(*net);
    r.frozen_displaced = frozen.displaced_fraction();
    r.lazy_displaced = lazy.displaced_fraction();
    r.lazy_repartitions = lazy.repartitions();
    // The re-sort-every-step baseline: a from-scratch AcdInstance of the
    // post-move configuration.
    const AcdInstance<2> inst(frozen.particles(), study.level, *curve);
    const fmm::Partition part(study.particles, study.procs);
    r.reorder_nfi = inst.nfi(part, *net, study.radius, study.norm);
    r.reorder_ffi = inst.ffi(part, *net);
  }
  return result;
}

}  // namespace sfc::core
