#include "sfc/hilbert.hpp"

namespace sfc::detail {

// Both routines follow Skilling (2004) verbatim, with unsigned types.
// State: x[0..dims-1], each coordinate `bits` bits wide.

void axes_to_transpose(std::uint32_t* x, unsigned bits, int dims) noexcept {
  const std::uint32_t m = 1u << (bits - 1);

  // Inverse undo of the rotation/reflection cascade.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (int i = 0; i < dims; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert low bits of the first axis
      } else {
        const std::uint32_t t = (x[0] ^ x[i]) & p;  // exchange low bits
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }

  // Gray encode across axes.
  for (int i = 1; i < dims; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if (x[dims - 1] & q) t ^= q - 1;
  }
  for (int i = 0; i < dims; ++i) x[i] ^= t;
}

// Pinned to a 64-byte boundary: every HilbertCurve::point() runs these
// loops, and they ran about 20% slower whenever the linker happened to
// place them off one (2.55 against 3.1–3.2 ms per p = 65536 Hilbert
// torus build with the same object shifted by 16, 32 or 48 bytes; 4-CPU
// x86 host, GCC 12). Unpinned, an unrelated change elsewhere in the
// library moved every Hilbert topology build by that much.
__attribute__((aligned(64))) void transpose_to_axes(std::uint32_t* x,
                                                    unsigned bits,
                                                    int dims) noexcept {
  const std::uint32_t n = 2u << (bits - 1);

  // Gray decode across axes.
  std::uint32_t t = x[dims - 1] >> 1;
  for (int i = dims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;

  // Undo the excess rotation/reflection work.
  for (std::uint32_t q = 2; q != n; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (int i = dims - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t u = (x[0] ^ x[i]) & p;
        x[0] ^= u;
        x[i] ^= u;
      }
    }
  }
}

}  // namespace sfc::detail
