// Unit tests for the persistent artifact store: crash-safe writes,
// validated mmap reads, and the contract that every failure mode —
// absent file, truncation, bit rot, version skew, foreign build — is a
// silent miss, never an error. A payload that passes every check but
// does not decode is the exception: run_study raises it.
#include "core/artifact_store.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rank_pair.hpp"
#include "core/sweep.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace sfc::core {
namespace {

namespace fs = std::filesystem;

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sfcacd_store_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ArtifactStoreOptions options(std::string provenance = "test-build") const {
    ArtifactStoreOptions o;
    o.dir = dir_;
    o.provenance = std::move(provenance);
    return o;
  }

  /// The single .sfcart file for `stage` in the store directory (the
  /// corruption tests rewrite it in place).
  fs::path only_artifact_file() const {
    fs::path found;
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".sfcart") {
        found = entry.path();
        ++count;
      }
    }
    EXPECT_EQ(count, 1u);
    return found;
  }

  /// Artifact files of one stage (by file-name prefix).
  std::vector<fs::path> artifacts_of(std::string_view stage) const {
    const std::string prefix = std::string(stage) + "-";
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        out.push_back(entry.path());
      }
    }
    return out;
  }

  void remove_artifacts(std::string_view stage) const {
    for (const fs::path& file : artifacts_of(stage)) fs::remove(file);
  }

  static std::vector<std::uint8_t> payload(std::size_t n,
                                           std::uint8_t fill = 7) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(fill + i);
    }
    return out;
  }

  std::string dir_;
};

TEST_F(ArtifactStoreTest, SaveThenLoadRoundTrips) {
  ArtifactStore store(options());
  const auto bytes = payload(256);
  store.save(SweepStage::kOrdering, 42, bytes.data(), bytes.size());
  EXPECT_TRUE(store.contains(SweepStage::kOrdering, 42));

  const auto mapping = store.load(SweepStage::kOrdering, 42);
  ASSERT_TRUE(mapping.has_value());
  ASSERT_EQ(mapping->size(), bytes.size());
  EXPECT_EQ(std::memcmp(mapping->data(), bytes.data(), bytes.size()), 0);

  const ArtifactStore::Stats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.spills, 1u);
  EXPECT_EQ(s.resident_files, 1u);
  EXPECT_EQ(s.read_bytes, bytes.size());
}

TEST_F(ArtifactStoreTest, AbsentKeyIsAMiss) {
  ArtifactStore store(options());
  EXPECT_FALSE(store.contains(SweepStage::kInstance, 7));
  EXPECT_FALSE(store.load(SweepStage::kInstance, 7).has_value());
  const ArtifactStore::Stats s = store.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt, 0u);
}

TEST_F(ArtifactStoreTest, SameKeyDifferentStageAreDistinctArtifacts) {
  ArtifactStore store(options());
  const auto a = payload(32, 1);
  const auto b = payload(64, 9);
  store.save(SweepStage::kOrdering, 42, a.data(), a.size());
  store.save(SweepStage::kInstance, 42, b.data(), b.size());
  const auto la = store.load(SweepStage::kOrdering, 42);
  const auto lb = store.load(SweepStage::kInstance, 42);
  ASSERT_TRUE(la.has_value());
  ASSERT_TRUE(lb.has_value());
  EXPECT_EQ(la->size(), a.size());
  EXPECT_EQ(lb->size(), b.size());
}

TEST_F(ArtifactStoreTest, SecondSaveOfAKeyIsIgnored) {
  ArtifactStore store(options());
  const auto first = payload(64, 1);
  const auto second = payload(64, 200);
  store.save(SweepStage::kNfiHistogram, 5, first.data(), first.size());
  store.save(SweepStage::kNfiHistogram, 5, second.data(), second.size());
  const auto mapping = store.load(SweepStage::kNfiHistogram, 5);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(std::memcmp(mapping->data(), first.data(), first.size()), 0);
  EXPECT_EQ(store.stats().spills, 1u);
}

TEST_F(ArtifactStoreTest, ReopenIndexesExistingArtifacts) {
  const auto bytes = payload(128);
  {
    ArtifactStore store(options());
    store.save(SweepStage::kCanonical, 9, bytes.data(), bytes.size());
  }
  ArtifactStore reopened(options());
  EXPECT_TRUE(reopened.contains(SweepStage::kCanonical, 9));
  const auto mapping = reopened.load(SweepStage::kCanonical, 9);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->size(), bytes.size());
  EXPECT_EQ(reopened.stats().resident_files, 1u);
}

TEST_F(ArtifactStoreTest, MappingOutlivesEviction) {
  // POSIX unlink leaves established mappings intact: a payload handed
  // out stays readable even after the budget deletes its file.
  ArtifactStore store(options());
  const auto bytes = payload(512);
  store.save(SweepStage::kOrdering, 1, bytes.data(), bytes.size());
  const auto mapping = store.load(SweepStage::kOrdering, 1);
  ASSERT_TRUE(mapping.has_value());
  fs::remove(only_artifact_file());
  EXPECT_EQ(std::memcmp(mapping->data(), bytes.data(), bytes.size()), 0);
}

TEST_F(ArtifactStoreTest, TruncatedFileIsACountedMissAndIsDeleted) {
  ArtifactStore store(options());
  const auto bytes = payload(256);
  store.save(SweepStage::kFfiHistogram, 3, bytes.data(), bytes.size());
  const fs::path file = only_artifact_file();
  fs::resize_file(file, fs::file_size(file) - 17);

  EXPECT_FALSE(store.load(SweepStage::kFfiHistogram, 3).has_value());
  const ArtifactStore::Stats s = store.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_FALSE(fs::exists(file));
  EXPECT_FALSE(store.contains(SweepStage::kFfiHistogram, 3));
  // The second probe is a plain miss: the invalid file is gone.
  EXPECT_FALSE(store.load(SweepStage::kFfiHistogram, 3).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST_F(ArtifactStoreTest, TruncationBelowHeaderIsACountedMiss) {
  ArtifactStore store(options());
  const auto bytes = payload(64);
  store.save(SweepStage::kOrdering, 11, bytes.data(), bytes.size());
  fs::resize_file(only_artifact_file(), 10);
  EXPECT_FALSE(store.load(SweepStage::kOrdering, 11).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST_F(ArtifactStoreTest, BitFlippedPayloadFailsTheChecksum) {
  ArtifactStore store(options());
  const auto bytes = payload(256);
  store.save(SweepStage::kInstance, 4, bytes.data(), bytes.size());
  const fs::path file = only_artifact_file();
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(48 + 100);  // one payload byte, past the 48-byte header
    char flipped = static_cast<char>(bytes[100] ^ 0x80);
    f.write(&flipped, 1);
  }
  EXPECT_FALSE(store.load(SweepStage::kInstance, 4).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(file));
}

TEST_F(ArtifactStoreTest, WrongFormatVersionIsACountedMiss) {
  ArtifactStore store(options());
  const auto bytes = payload(64);
  store.save(SweepStage::kCanonical, 8, bytes.data(), bytes.size());
  const fs::path file = only_artifact_file();
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // format_version field, just past the magic
    const std::uint32_t bad = kArtifactStoreFormatVersion + 1;
    f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  }
  EXPECT_FALSE(store.load(SweepStage::kCanonical, 8).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST_F(ArtifactStoreTest, ForeignProvenanceNeverAnswersProbes) {
  const auto bytes = payload(64);
  {
    ArtifactStore store(options("build-a"));
    store.save(SweepStage::kOrdering, 6, bytes.data(), bytes.size());
  }
  // A different build shares the directory: the foreign artifact is
  // simply invisible (filename keys differ), not corrupt, not deleted.
  ArtifactStore other(options("build-b"));
  EXPECT_FALSE(other.contains(SweepStage::kOrdering, 6));
  EXPECT_FALSE(other.load(SweepStage::kOrdering, 6).has_value());
  EXPECT_EQ(other.stats().corrupt, 0u);
  EXPECT_EQ(other.stats().misses, 1u);
  EXPECT_FALSE(only_artifact_file().empty());

  ArtifactStore original(options("build-a"));
  EXPECT_TRUE(original.load(SweepStage::kOrdering, 6).has_value());
}

TEST_F(ArtifactStoreTest, BudgetEvictsOldestFirst) {
  ArtifactStoreOptions o = options();
  // Three ~1 KiB artifacts against a 2.5 KiB budget: the first save
  // must be evicted, the last two survive.
  o.byte_budget = 2560;
  ArtifactStore store(o);
  const auto bytes = payload(1024 - 48);
  store.save(SweepStage::kOrdering, 1, bytes.data(), bytes.size());
  store.save(SweepStage::kOrdering, 2, bytes.data(), bytes.size());
  store.save(SweepStage::kOrdering, 3, bytes.data(), bytes.size());

  const ArtifactStore::Stats s = store.stats();
  EXPECT_EQ(s.evicted_files, 1u);
  EXPECT_EQ(s.resident_files, 2u);
  EXPECT_LE(s.resident_bytes, o.byte_budget);
  EXPECT_FALSE(store.contains(SweepStage::kOrdering, 1));
  EXPECT_TRUE(store.contains(SweepStage::kOrdering, 2));
  EXPECT_TRUE(store.contains(SweepStage::kOrdering, 3));
}

TEST_F(ArtifactStoreTest, OverBudgetStoreStillKeepsTheNewestArtifact) {
  ArtifactStoreOptions o = options();
  o.byte_budget = 1;  // nothing fits, but the newest file is never culled
  ArtifactStore store(o);
  const auto bytes = payload(512);
  store.save(SweepStage::kInstance, 1, bytes.data(), bytes.size());
  EXPECT_TRUE(store.contains(SweepStage::kInstance, 1));
  store.save(SweepStage::kInstance, 2, bytes.data(), bytes.size());
  EXPECT_FALSE(store.contains(SweepStage::kInstance, 1));
  EXPECT_TRUE(store.contains(SweepStage::kInstance, 2));
}

TEST_F(ArtifactStoreTest, ClearRemovesEveryArtifactAtOpen) {
  const auto bytes = payload(64);
  {
    ArtifactStore store(options());
    store.save(SweepStage::kOrdering, 1, bytes.data(), bytes.size());
    store.save(SweepStage::kInstance, 2, bytes.data(), bytes.size());
  }
  ArtifactStoreOptions o = options();
  o.clear = true;
  ArtifactStore cleared(o);
  EXPECT_EQ(cleared.stats().resident_files, 0u);
  EXPECT_FALSE(cleared.contains(SweepStage::kOrdering, 1));
  EXPECT_FALSE(cleared.contains(SweepStage::kInstance, 2));
  std::size_t artifact_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sfcart") ++artifact_files;
  }
  EXPECT_EQ(artifact_files, 0u);
}

TEST_F(ArtifactStoreTest, EmptyPayloadRoundTrips) {
  ArtifactStore store(options());
  store.save(SweepStage::kOrdering, 77, nullptr, 0);
  const auto mapping = store.load(SweepStage::kOrdering, 77);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->size(), 0u);
}

TEST_F(ArtifactStoreTest, JsonSnapshotCarriesTheCounters) {
  ArtifactStore store(options());
  const auto bytes = payload(64);
  store.save(SweepStage::kOrdering, 1, bytes.data(), bytes.size());
  (void)store.load(SweepStage::kOrdering, 1);
  const std::string json = store.json();
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"spills\":1"), std::string::npos);
  EXPECT_NE(json.find("\"resident_files\":1"), std::string::npos);
}

TEST_F(ArtifactStoreTest, UndecodablePayloadIsRaisedByRunStudy) {
  // A store file whose header is valid for a payload that does not
  // decode (a forged file or a producer bug) must surface as an error
  // from run_study, serially and from inside a pool task alike.
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 3;
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton};
  s.far_field = false;
  s.proc_counts = {16};
  {
    ArtifactStore store(options());
    SweepOptions cold;
    cold.store = &store;
    (void)run_study(s, cold);
  }
  fs::path hist;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("nfi_histogram-", 0) == 0) {
      hist = entry.path();
    }
  }
  ASSERT_FALSE(hist.empty());
  // Drop the payload's last 8 bytes, then restamp the header's length
  // (offset 32) and checksum (offset 40) so the file validates.
  std::vector<char> file;
  {
    std::ifstream in(hist, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(file.size(), 48u + 8u);
  file.resize(file.size() - 8);
  const std::uint64_t length = file.size() - 48;
  const std::uint64_t sum = ArtifactStore::checksum(file.data() + 48, length);
  std::memcpy(file.data() + 32, &length, sizeof length);
  std::memcpy(file.data() + 40, &sum, sizeof sum);
  {
    std::ofstream out(hist, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  // A warm run reads a histogram only for a fold the store lacks, so the
  // folds go too: the forged histogram must be demanded.
  remove_artifacts("fold");

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    ArtifactStore store(options());
    SweepOptions warm;
    warm.store = &store;
    warm.pool = p;
    EXPECT_THROW((void)run_study(s, warm), std::runtime_error)
        << (p == nullptr ? "serial" : "pooled");
    EXPECT_EQ(store.stats().corrupt, 0u);
  }
}

/// 2 particle curves x 2 processor curves x {torus, hypercube}, both
/// models: 8 cells. The torus is ranked, so its folds are distinct per
/// (particle curve, processor curve): 4; the hypercube is not, so its
/// folds are shared across processor curves: 2. Histograms: one NFI and
/// one FFI per particle curve.
Study pruned_plan_study() {
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 11;
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton};
  s.processor_curves = {CurveKind::kHilbert, CurveKind::kRowMajor};
  s.topologies = {topo::TopologyKind::kTorus, topo::TopologyKind::kHypercube};
  s.proc_counts = {16};
  return s;
}
constexpr std::uint64_t kPrunedPlanFolds = 6;
constexpr std::uint64_t kPrunedPlanHistograms = 4;

void expect_cells_match(const StudyResult& got, const StudyResult& want,
                        const char* what) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << what;
  for (std::size_t i = 0; i < got.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].nfi_acd, want.cells[i].nfi_acd) << what << " " << i;
    EXPECT_EQ(got.cells[i].ffi_acd, want.cells[i].ffi_acd) << what << " " << i;
  }
}

constexpr SweepStage kUpstreamOfHistograms[] = {
    SweepStage::kSample, SweepStage::kCanonical, SweepStage::kOrdering,
    SweepStage::kInstance};
constexpr SweepStage kHistograms[] = {SweepStage::kNfiHistogram,
                                      SweepStage::kFfiHistogram};

/// None of `stages` was requested by the plan.
template <std::size_t N>
void expect_unrequested(const SweepStats& st, const SweepStage (&stages)[N],
                        const char* what) {
  for (const SweepStage stage : stages) {
    EXPECT_EQ(st.stage(stage).hits + st.stage(stage).misses, 0u)
        << what << ": " << sweep_stage_name(stage);
  }
}

TEST_F(ArtifactStoreTest, WarmRerunLoadsOnlyTheFolds) {
  const Study s = pruned_plan_study();
  SweepOptions direct;
  direct.reuse = false;
  const StudyResult oracle = run_study(s, direct);
  {
    ArtifactStore store(options());
    SweepOptions cold;
    cold.store = &store;
    expect_cells_match(run_study(s, cold), oracle, "cold");
  }
  ASSERT_EQ(artifacts_of("fold").size(), kPrunedPlanFolds);

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const char* what = p == nullptr ? "serial" : "pooled";
    ArtifactStore store(options());
    SweepOptions warm;
    warm.store = &store;
    warm.pool = p;
    const StudyResult w = run_study(s, warm);
    expect_cells_match(w, oracle, what);
    // Every probe is a hit or a miss: one probe per distinct fold, so
    // no canonical, ordering, instance or histogram file was touched.
    const ArtifactStore::Stats st = store.stats();
    EXPECT_EQ(st.hits, kPrunedPlanFolds) << what;
    EXPECT_EQ(st.misses, 0u) << what;
    EXPECT_EQ(st.corrupt, 0u) << what;
    expect_unrequested(w.sweep, kUpstreamOfHistograms, what);
    expect_unrequested(w.sweep, kHistograms, what);
  }
}

TEST_F(ArtifactStoreTest, RerunWithoutFoldsLoadsOnlyTheHistograms) {
  const Study s = pruned_plan_study();
  SweepOptions direct;
  direct.reuse = false;
  const StudyResult oracle = run_study(s, direct);
  {
    ArtifactStore store(options());
    SweepOptions cold;
    cold.store = &store;
    (void)run_study(s, cold);
  }
  ASSERT_EQ(artifacts_of("nfi_histogram").size() +
                artifacts_of("ffi_histogram").size(),
            kPrunedPlanHistograms);

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const char* what = p == nullptr ? "serial" : "pooled";
    remove_artifacts("fold");
    ArtifactStore store(options());
    SweepOptions warm;
    warm.store = &store;
    warm.pool = p;
    const StudyResult w = run_study(s, warm);
    expect_cells_match(w, oracle, what);
    // Probes: every fold misses, every histogram hits, nothing else.
    const ArtifactStore::Stats st = store.stats();
    EXPECT_EQ(st.hits, kPrunedPlanHistograms) << what;
    EXPECT_EQ(st.misses, kPrunedPlanFolds) << what;
    EXPECT_EQ(st.corrupt, 0u) << what;
    expect_unrequested(w.sweep, kUpstreamOfHistograms, what);
    // The rebuilt folds are saved again.
    EXPECT_EQ(artifacts_of("fold").size(), kPrunedPlanFolds) << what;
  }
}

TEST_F(ArtifactStoreTest, OneByteBudgetBoundsAWholeStudyByItsLargestArtifact) {
  // The budget never evicts the newest file, so what stays resident is
  // bounded by budget + the largest artifact, not by the budget alone —
  // under a pool too, where saves race with each other.
  const Study s = pruned_plan_study();
  SweepOptions plain;
  const StudyResult oracle = run_study(s, plain);
  std::uintmax_t largest = 0;
  {
    ArtifactStore store(options());
    SweepOptions cold;
    cold.store = &store;
    (void)run_study(s, cold);
    for (const auto& entry : fs::directory_iterator(dir_)) {
      largest = std::max(largest, entry.file_size());
    }
  }
  ASSERT_GT(largest, 0u);

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const char* what = p == nullptr ? "serial" : "pooled";
    ArtifactStoreOptions o = options();
    o.byte_budget = 1;
    o.clear = true;
    ArtifactStore store(o);
    SweepOptions tight;
    tight.store = &store;
    tight.pool = p;
    expect_cells_match(run_study(s, tight), oracle, what);
    const ArtifactStore::Stats st = store.stats();
    EXPECT_GT(st.spills, 1u) << what;
    EXPECT_EQ(st.resident_files, 1u) << what;
    EXPECT_LE(st.resident_bytes, o.byte_budget + largest) << what;
    std::uintmax_t on_disk = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      on_disk += entry.file_size();
    }
    EXPECT_EQ(on_disk, st.resident_bytes) << what;
  }
}

// ------------------------------------------------- rank-pair codec

/// A hand-written rank_pairs_serialize record.
std::vector<std::uint8_t> rank_pair_record(
    std::uint64_t procs, bool dense,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pairs) {
  std::vector<std::uint64_t> words = {procs, dense ? 1u : 0u, pairs.size()};
  for (const auto& [key, count] : pairs) {
    words.push_back(key);
    words.push_back(count);
  }
  std::vector<std::uint8_t> out(words.size() * sizeof(std::uint64_t));
  std::memcpy(out.data(), words.data(), out.size());
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs_of(
    const RankPairAccumulator& acc) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
    out.emplace_back(std::uint64_t{a} * acc.procs() + b, count);
  });
  return out;
}

TEST(RankPairCodec, RoundTripsDenseAndSparse) {
  RankPairAccumulator acc(12);
  for (topo::Rank i = 0; i < 200; ++i) {
    acc.add(i % 12, (i * 7) % 12, 1 + i % 3);
  }
  std::vector<std::uint8_t> bytes;
  rank_pairs_serialize(acc, bytes);
  std::uint64_t mode = ~0ull;
  std::memcpy(&mode, bytes.data() + 8, sizeof mode);
  EXPECT_EQ(mode, 0u);
  // Mode 1 flags a record written when small histograms were p² arrays:
  // the same key-ordered pairs, so it decodes to the same histogram.
  // Any other mode word is rejected.
  for (const std::uint64_t flag : {0ull, 1ull, 2ull}) {
    std::memcpy(bytes.data() + 8, &flag, sizeof flag);
    std::size_t off = 0;
    const auto back = rank_pairs_deserialize(bytes.data(), bytes.size(), off);
    if (flag > 1) {
      EXPECT_FALSE(back.has_value());
      continue;
    }
    ASSERT_TRUE(back.has_value()) << flag;
    EXPECT_EQ(off, bytes.size());
    EXPECT_EQ(pairs_of(*back), pairs_of(acc));
    EXPECT_EQ(back->events(), acc.events());
  }
}

TEST(RankPairCodec, SealedSparseHistogramHoldsOnlyItsPairs) {
  RankPairAccumulator acc(64);
  for (topo::Rank i = 0; i < 5000; ++i) acc.add(i % 64, (i / 64) % 64);
  acc.seal();
  const std::size_t pairs = pairs_of(acc).size();
  const std::size_t entry = sizeof(std::pair<std::uint64_t, std::uint64_t>);
  EXPECT_EQ(acc.memory_bytes(), pairs * entry);
  // Deserialized histograms come back sealed and sized to fit as well.
  std::vector<std::uint8_t> bytes;
  rank_pairs_serialize(acc, bytes);
  std::size_t off = 0;
  const auto back = rank_pairs_deserialize(bytes.data(), bytes.size(), off);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->memory_bytes(), pairs * entry);
}

TEST(RankPairCodec, RejectsKeysThatAreNotStrictlyIncreasing) {
  for (const bool dense : {false, true}) {
    std::size_t off = 0;
    auto bytes = rank_pair_record(8, dense, {{5, 1}, {3, 1}});
    EXPECT_FALSE(rank_pairs_deserialize(bytes.data(), bytes.size(), off))
        << "descending, dense=" << dense;
    off = 0;
    bytes = rank_pair_record(8, dense, {{5, 1}, {5, 2}});
    EXPECT_FALSE(rank_pairs_deserialize(bytes.data(), bytes.size(), off))
        << "repeated, dense=" << dense;
    off = 0;
    bytes = rank_pair_record(8, dense, {{3, 1}, {5, 2}});
    EXPECT_TRUE(rank_pairs_deserialize(bytes.data(), bytes.size(), off))
        << "increasing, dense=" << dense;
  }
}

TEST(RankPairCodec, DecodesADenseFlaggedRecordAsItsPairs) {
  // A dense-flagged 16384-rank header holds no p² array (2 GiB at this
  // p): the record decodes to its pairs and nothing more.
  std::size_t off = 0;
  auto bytes = rank_pair_record(16384, /*dense=*/true, {});
  auto empty = rank_pairs_deserialize(bytes.data(), bytes.size(), off);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->memory_bytes(), 0u);
  EXPECT_EQ(empty->events(), 0u);
  off = 0;
  bytes = rank_pair_record(16384, /*dense=*/true,
                           {{1, 3}, {16385, 2}, {16384ull * 16384 - 1, 5}});
  const auto back = rank_pairs_deserialize(bytes.data(), bytes.size(), off);
  ASSERT_TRUE(back.has_value());
  const std::size_t entry = sizeof(std::pair<std::uint64_t, std::uint64_t>);
  EXPECT_EQ(back->memory_bytes(), 3 * entry);
  EXPECT_EQ(back->events(), 10u);
  EXPECT_EQ(off, bytes.size());
}

TEST(RankPairCodec, RejectsAZeroCount) {
  for (const bool dense : {false, true}) {
    std::size_t off = 0;
    const auto bytes = rank_pair_record(8, dense, {{3, 1}, {5, 0}});
    EXPECT_FALSE(rank_pairs_deserialize(bytes.data(), bytes.size(), off))
        << "dense=" << dense;
  }
}

}  // namespace
}  // namespace sfc::core
