// radix_sort.hpp — stable LSD radix sort for 64-bit-keyed records.
//
// The sweep engine's ordering stage and the FFI cell tree sort records by
// SFC keys: 64-bit integers whose distribution is dense in the low
// 2·level (or D·level) bits and zero above. A comparison sort pays
// O(n log n) branchy comparisons; least-significant-digit radix sort pays
// O(n) per 8-bit pass and skips passes whose byte is constant across the
// input, so a level-10 ordering (20 varying bits) costs three linear
// scatters. The sort is stable — equal keys keep their input order, the
// same tie-break contract as std::stable_sort with a key projection —
// which is what lets it replace the stable sorts the ACD golden numbers
// were pinned against (see docs/architecture.md, "Ordering stability").
//
// The threaded variant partitions the input into fixed per-worker chunks,
// counts byte occurrences into per-chunk arrays, serializes the (tiny)
// bucket-major prefix sum, and scatters each chunk into disjoint
// destination ranges. Chunk boundaries depend only on (n, worker count),
// so the output permutation is identical to the serial sort's — thread
// scheduling cannot reorder anything.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sfc::util {

/// The record shape the callers sort: an SFC key plus the index of the
/// element it was computed from (an argsort, in other words).
struct KeyIndex {
  std::uint64_t key = 0;
  std::uint32_t index = 0;
};

/// The KeyIndex key projection as a named type (not a lambda) so the
/// sort can recognize it at compile time and hand the varying-byte
/// pre-scan to the SIMD key16_or_and kernel — a lambda with the same
/// body would be semantically identical but unidentifiable.
struct KeyIndexKey {
  std::uint64_t operator()(const KeyIndex& k) const noexcept { return k.key; }
};

namespace detail {

/// Minimum record count for the threaded sort: below it the fan-out
/// latency of a pass exceeds the pass itself. Resolved per call from the
/// SFCACD_RADIX_THREAD_MIN environment override, else from a one-time
/// calibration of the serial sort's per-record cost (radix_sort.cpp).
std::size_t threaded_radix_min();

/// Bump the radix.sort.threaded / radix.sort.serial path counters.
void note_radix_path(bool threaded);

/// OR- and AND-reduce the projected keys — the pre-scan that finds which
/// key bytes actually vary. Dispatches the SIMD kernel only for the
/// (KeyIndex, KeyIndexKey) pair, where the projection is known to read
/// the u64 at record offset 0 and nothing else.
template <typename T, typename KeyFn>
void key_or_and(const T* items, std::size_t n, KeyFn key_of,
                std::uint64_t& all_or, std::uint64_t& all_and) {
  if constexpr (std::is_same_v<T, KeyIndex> &&
                std::is_same_v<KeyFn, KeyIndexKey>) {
    static_assert(sizeof(KeyIndex) == 16 && offsetof(KeyIndex, key) == 0,
                  "key16_or_and reads a u64 key at offset 0 of a 16-byte "
                  "record");
    if (auto* kernel = simd::kernels().key16_or_and; kernel != nullptr) {
      kernel(reinterpret_cast<const unsigned char*>(items), n, &all_or,
             &all_and);
      return;
    }
  }
  std::uint64_t o = 0;
  std::uint64_t a = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key_of(items[i]);
    o |= k;
    a &= k;
  }
  all_or = o;
  all_and = a;
}

/// Serial passes over the varying bytes, with the counting fused into
/// one scan: a byte-value histogram is a property of the key *multiset*,
/// which the scatters between passes only permute, so histograms taken
/// from the initial array are valid for every pass. A 3-varying-byte
/// sort thus sweeps memory 4 times (1 count + 3 scatters) instead of 6.
template <typename T, typename KeyFn>
void radix_passes_serial(T*& src, T*& dst, std::size_t n,
                         const unsigned* shifts, unsigned nv, KeyFn key_of) {
  std::vector<std::array<std::size_t, 256>> hist(nv);
  for (auto& h : hist) h.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key_of(src[i]);
    for (unsigned v = 0; v < nv; ++v) {
      ++hist[v][(k >> shifts[v]) & 0xffu];
    }
  }
  for (unsigned v = 0; v < nv; ++v) {
    auto& count = hist[v];
    std::size_t sum = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::size_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    const unsigned shift = shifts[v];
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(key_of(src[i]) >> shift) & 0xffu]++] = src[i];
    }
    std::swap(src, dst);
  }
}

/// Run `body(chunk, lo, hi)` for `chunks` fixed-size slices of [0, n) on
/// the pool and block until all complete, helping with queued work while
/// waiting (so calls from the pool's own tasks are safe). Not
/// parallel_for_chunks because the counting and scatter phases must
/// agree on the chunk -> count-row mapping.
template <typename Body>
void for_fixed_chunks(ThreadPool& pool, std::size_t n, std::size_t chunks,
                      std::size_t chunk_size, const Body& body) {
  Latch latch(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = lo + chunk_size < n ? lo + chunk_size : n;
    pool.submit([&, c, lo, hi] {
      body(c, lo, hi);
      latch.count_down();
    });
  }
  latch.wait_and_help(can_help(pool) ? &pool : nullptr);
}

template <typename T, typename KeyFn>
void radix_count_scatter_threaded(ThreadPool& pool, const T* src, T* dst,
                                  std::size_t n, unsigned shift, KeyFn key_of,
                                  std::size_t chunks, std::size_t chunk_size,
                                  std::vector<std::array<std::size_t, 256>>& counts) {
  for_fixed_chunks(pool, n, chunks, chunk_size,
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                     auto& count = counts[c];
                     count.fill(0);
                     for (std::size_t i = lo; i < hi; ++i) {
                       ++count[(key_of(src[i]) >> shift) & 0xffu];
                     }
                   });
  // Bucket-major exclusive prefix: all of bucket v's slots precede bucket
  // v+1's, and within a bucket chunk c's slots precede chunk c+1's. That
  // ordering (plus in-chunk scan order below) is exactly what makes the
  // threaded sort stable and bit-identical to the serial one.
  std::size_t sum = 0;
  for (std::size_t v = 0; v < 256; ++v) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t k = counts[c][v];
      counts[c][v] = sum;
      sum += k;
    }
  }
  for_fixed_chunks(pool, n, chunks, chunk_size,
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                     auto& offset = counts[c];
                     for (std::size_t i = lo; i < hi; ++i) {
                       dst[offset[(key_of(src[i]) >> shift) & 0xffu]++] = src[i];
                     }
                   });
}

}  // namespace detail

/// Stable LSD radix sort of `items` by `key_of(item)` (any projection to
/// std::uint64_t). Equal keys keep their input order. Passes whose byte
/// is constant across the whole input are skipped, so the cost is one
/// linear count + scatter per *varying* key byte. When `pool` has more
/// than one worker and the input is large enough, counting and
/// scattering fan out over fixed per-chunk slices; the result is
/// bit-identical to the serial path regardless of scheduling. Like
/// parallel_for_chunks, the join helps run queued tasks, so a pool may be
/// passed from inside one of its own tasks.
template <typename T, typename KeyFn>
void radix_sort_by_key(std::vector<T>& items, KeyFn key_of,
                       ThreadPool* pool = nullptr) {
  const std::size_t n = items.size();
  if (n < 2) return;
  std::uint64_t all_or = 0;
  std::uint64_t all_and = ~std::uint64_t{0};
  detail::key_or_and(items.data(), n, key_of, all_or, all_and);
  const std::uint64_t varying = all_or ^ all_and;
  if (varying == 0) return;  // every key equal: already stable-sorted

  unsigned shifts[8];
  unsigned nv = 0;
  for (unsigned byte = 0; byte < 8; ++byte) {
    if (((varying >> (byte * 8)) & 0xffu) != 0) shifts[nv++] = byte * 8;
  }

  std::vector<T> buffer(n);
  T* src = items.data();
  T* dst = buffer.data();

  const bool threaded = pool != nullptr && pool->size() > 1 &&
                        n >= detail::threaded_radix_min();
  detail::note_radix_path(threaded);
  if (threaded) {
    // Per-pass counting is unavoidable here: chunk-local histograms
    // depend on which records each chunk holds, and the scatter between
    // passes re-distributes records across chunks.
    std::size_t chunks = pool->size();
    std::size_t chunk_size = (n + chunks - 1) / chunks;
    chunks = (n + chunk_size - 1) / chunk_size;
    std::vector<std::array<std::size_t, 256>> counts(chunks);
    for (unsigned v = 0; v < nv; ++v) {
      detail::radix_count_scatter_threaded(*pool, src, dst, n, shifts[v],
                                           key_of, chunks, chunk_size, counts);
      std::swap(src, dst);
    }
  } else {
    detail::radix_passes_serial(src, dst, n, shifts, nv, key_of);
  }
  if (src != items.data()) {
    // Odd number of passes: the sorted run lives in the buffer.
    items.swap(buffer);
  }
}

/// Argsort entry point: sort (key, index) pairs by key, ties by input
/// order.
inline void radix_sort_pairs(std::vector<KeyIndex>& items,
                             ThreadPool* pool = nullptr) {
  radix_sort_by_key(items, KeyIndexKey{}, pool);
}

}  // namespace sfc::util
