// artifact_store.hpp — the crash-safe on-disk tier of the sweep engine's
// stage artifacts.
//
// Every run of a study bench rebuilds the same expensive stage artifacts
// (canonical samples, orderings, instances, NFI/FFI histograms) because
// the in-memory ones die with the process. The store persists those
// artifacts as one file per (stage, content key), so a warm rerun — same
// parameters, same build — deserializes instead of recomputing. It is a
// cache, not a database: every failure mode (absent file, truncated
// write, bit rot, foreign build, version skew) is silently a miss, and
// the engine recomputes.
//
// On-disk format (docs/architecture.md, "Persistent artifact store"):
//   <dir>/<stage>-<16-hex-key>.sfcart
//   header: magic "SFCARTv1", format version, stage id, stage key,
//           provenance hash (git sha ⊕ format version), payload length,
//           FNV-1a checksum of the payload — followed by the payload.
// The filename key is the stage key chained with the stage id and the
// provenance hash, so builds from different commits coexist in one
// directory without ever answering each other's probes.
//
// Writes are temp-file + fsync + rename (atomic on POSIX): a crash
// mid-write leaves a temp file that is ignored, never a half-written
// artifact under a valid name. Reads are mmap'd and fully validated
// before the payload is handed out; the mapping pins the bytes, and
// POSIX unlink leaves established mappings intact, so concurrent budget
// eviction can never yank a payload out from under a reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/sweep.hpp"

namespace sfc::core {

/// Bump on any change to the header layout, a stage id or a stage's
/// payload encoding: old files then validate as foreign and are treated
/// as misses (and eventually evicted by the byte budget).
inline constexpr std::uint32_t kArtifactStoreFormatVersion = 2;

/// Default on-disk budget: 4 GiB holds several paper-scale sweeps'
/// worth of histograms and instances.
inline constexpr std::size_t kDefaultArtifactStoreBytes = std::size_t{4}
                                                          << 30;

struct ArtifactStoreOptions {
  std::string dir;
  std::size_t byte_budget = kDefaultArtifactStoreBytes;
  /// Delete every artifact file at open (the --store-clear flag).
  bool clear = false;
  /// Build-provenance override. Empty = util/version.hpp's git sha, the
  /// production behavior; tests pass a fixed string so round-trips do
  /// not depend on the working tree, and a *different* string to prove
  /// foreign-build artifacts are misses.
  std::string provenance;
};

class ArtifactStore {
 public:
  /// Counter snapshot (one atomic block under the store mutex).
  struct Stats {
    std::uint64_t hits = 0;        ///< validated loads
    std::uint64_t misses = 0;      ///< probes with no (valid) file
    std::uint64_t corrupt = 0;     ///< probes that found an invalid file
    std::uint64_t spills = 0;      ///< artifacts written, each after its build
    std::uint64_t spilled_bytes = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t evicted_files = 0;  ///< files deleted by the budget
    std::uint64_t resident_files = 0;
    std::uint64_t resident_bytes = 0;
  };

  /// A validated, mmap'd payload. Movable; unmaps on destruction.
  class Mapping {
   public:
    Mapping() = default;
    Mapping(Mapping&& o) noexcept { swap(o); }
    Mapping& operator=(Mapping&& o) noexcept {
      if (this != &o) {
        release();
        swap(o);
      }
      return *this;
    }
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping() { release(); }

    const std::uint8_t* data() const noexcept { return payload_; }
    std::size_t size() const noexcept { return size_; }

   private:
    friend class ArtifactStore;
    void swap(Mapping& o) noexcept {
      std::swap(base_, o.base_);
      std::swap(map_len_, o.map_len_);
      std::swap(payload_, o.payload_);
      std::swap(size_, o.size_);
    }
    void release() noexcept;

    void* base_ = nullptr;
    std::size_t map_len_ = 0;
    const std::uint8_t* payload_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Opens (creating the directory if needed), optionally clears, and
  /// indexes the existing artifact files. Throws std::runtime_error when
  /// the directory cannot be created.
  explicit ArtifactStore(const ArtifactStoreOptions& options);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  const std::string& dir() const noexcept { return dir_; }
  std::size_t byte_budget() const noexcept { return budget_; }

  /// Validated read of the artifact under (stage, key). nullopt is a
  /// miss; an existing-but-invalid file additionally counts as corrupt
  /// and is deleted. The returned mapping stays readable even if the
  /// budget evicts the file afterwards.
  std::optional<Mapping> load(SweepStage stage, std::uint64_t key);

  /// Whether a file for (stage, key) is indexed (no validation, no
  /// counter traffic) — the spill/flush paths use this to skip rewrites.
  bool contains(SweepStage stage, std::uint64_t key) const;

  /// Persist an artifact payload: temp file + fsync + rename, then
  /// oldest-first deletion until within the byte budget. A key already
  /// present is left untouched. IO failures are silent (miss-on-reload
  /// is the contract) but leave no partial file behind.
  void save(SweepStage stage, std::uint64_t key, const void* payload,
            std::size_t size);

  Stats stats() const;
  /// {"dir":...,"hits":...,...} — embedded by the bench harness in every
  /// --json document under "artifact_store".
  std::string json() const;
  /// sweep.store.* gauges (set, not accumulated — same discipline as the
  /// sweep.cache.* family).
  void publish_metrics() const;

  /// FNV-1a over the payload bytes (the header checksum).
  static std::uint64_t checksum(const void* data, std::size_t size) noexcept;

 private:
  struct FileInfo {
    std::string name;
    std::size_t bytes = 0;   ///< whole file (header + payload)
    std::uint64_t order = 0;  ///< eviction order: scan mtime, then writes
  };

  std::uint64_t file_key(SweepStage stage, std::uint64_t key) const noexcept;
  std::string path_of(SweepStage stage, std::uint64_t key) const;
  /// Delete oldest files until resident_bytes_ <= budget_ (keeping at
  /// least the newest). Caller holds mutex_.
  void enforce_budget_locked();
  void forget_locked(std::uint64_t fkey);

  std::string dir_;
  std::size_t budget_;
  std::uint64_t provenance_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, FileInfo> index_;
  std::uint64_t next_order_ = 0;
  Stats counters_;
  unsigned temp_seq_ = 0;
};

}  // namespace sfc::core
