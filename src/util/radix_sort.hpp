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
// The sort is serial and takes no pool. Its callers run on one thread
// each: the sweep parallelizes across whole stage builds, never inside
// one (see SweepOptions::pool).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/simd.hpp"

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

}  // namespace detail

/// Stable LSD radix sort of `items` by `key_of(item)` (any projection to
/// std::uint64_t). Equal keys keep their input order. Passes whose byte
/// is constant across the whole input are skipped, so the cost is one
/// linear count + scatter per *varying* key byte.
template <typename T, typename KeyFn>
void radix_sort_by_key(std::vector<T>& items, KeyFn key_of) {
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

  // The counting is fused into one scan: a byte-value histogram is a
  // property of the key *multiset*, which the scatters between passes
  // only permute, so histograms taken from the initial array are valid
  // for every pass. A 3-varying-byte sort thus sweeps memory 4 times
  // (1 count + 3 scatters) instead of 6.
  std::vector<std::array<std::size_t, 256>> hist(nv);
  for (auto& h : hist) h.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key_of(items[i]);
    for (unsigned v = 0; v < nv; ++v) {
      ++hist[v][(k >> shifts[v]) & 0xffu];
    }
  }

  std::vector<T> buffer(n);
  T* src = items.data();
  T* dst = buffer.data();
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
  if (src != items.data()) {
    // Odd number of passes: the sorted run lives in the buffer.
    items.swap(buffer);
  }
}

/// Argsort entry point: sort (key, index) pairs by key, ties by input
/// order.
inline void radix_sort_pairs(std::vector<KeyIndex>& items) {
  radix_sort_by_key(items, KeyIndexKey{});
}

}  // namespace sfc::util
