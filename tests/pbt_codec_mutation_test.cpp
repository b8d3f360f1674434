// pbt_codec_mutation_test.cpp — byte-mutation suite for the artifact-store
// codecs (rank_pairs_deserialize, ffi_histograms_deserialize).
//
// The store's checksum rejects torn or corrupted files, so these decoders
// only ever see bytes some producer wrote. They still must not trust
// them: a payload that validates but was written by a different (or
// buggy) producer reaches the decoder unchecked. Each property serializes
// a random histogram — half the records carry mode word 1, the flag of
// records written when small histograms were p² arrays, which decode
// alike — mutates the bytes, and decodes:
//   * flip: xor 1–4 random bytes with a nonzero mask;
//   * truncate: cut the payload at a random length;
//   * splice: a prefix of this payload followed by a suffix of another
//     histogram's payload;
//   * field: overwrite one u64 field (header or pair) with 0, p², p²−1 or
//     2⁶⁴−1 — the boundary values of every bound the decoder checks.
// The decode must return nullopt or a sealed, well-formed histogram:
// every key < p², every count > 0, keys strictly increasing, and the
// histogram holding exactly its pairs. It must never crash or trip a
// sanitizer (the ASan+UBSan leg runs this binary).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/rank_pair.hpp"
#include "fmm/ffi.hpp"
#include "testing/gtest.hpp"

namespace sfc {
namespace {

enum class Mutation { kFlip, kTruncate, kSplice, kField };

struct MutationCase {
  topo::Rank procs = 1;
  bool legacy = true;       ///< records carry mode word 1
  unsigned events = 0;      ///< add() calls that fill it
  std::uint64_t seed = 0;   ///< histogram contents and mutation choices
  Mutation mutation = Mutation::kFlip;
};

std::ostream& operator<<(std::ostream& os, const MutationCase& c) {
  static const char* const kNames[] = {"flip", "truncate", "splice", "field"};
  return os << "{procs=" << c.procs << ", legacy=" << c.legacy
            << ", events=" << c.events << ", seed=" << c.seed
            << ", mutation=" << kNames[static_cast<int>(c.mutation)] << "}";
}

/// Random histograms up to p = 64, either mode word; shrinks toward fewer
/// events, then fewer ranks.
pbt::Gen<MutationCase> mutation_case() {
  return pbt::Gen<MutationCase>{
      [](pbt::Rand& r) {
        MutationCase c;
        c.procs = static_cast<topo::Rank>(r.between(1, 64));
        c.legacy = r.below(2) == 0;
        c.events = static_cast<unsigned>(r.between(0, 400));
        c.seed = r.u64();
        c.mutation = static_cast<Mutation>(r.below(4));
        return c;
      },
      [](const MutationCase& c, std::vector<MutationCase>& out) {
        std::vector<unsigned> events;
        pbt::shrink_integral_toward(0u, c.events, events);
        for (const unsigned e : events) {
          MutationCase smaller = c;
          smaller.events = e;
          out.push_back(smaller);
        }
        std::vector<topo::Rank> procs;
        pbt::shrink_integral_toward(topo::Rank{1}, c.procs, procs);
        for (const topo::Rank p : procs) {
          MutationCase smaller = c;
          smaller.procs = p;
          out.push_back(smaller);
        }
      }};
}

/// SplitMix64 step: the deterministic stream behind one case.
std::uint64_t next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

core::RankPairAccumulator histogram(topo::Rank procs, unsigned events,
                                    std::uint64_t& state) {
  core::RankPairAccumulator acc(procs);
  for (unsigned i = 0; i < events; ++i) {
    const std::uint64_t v = next(state);
    acc.add(static_cast<topo::Rank>(v % procs),
            static_cast<topo::Rank>((v >> 20) % procs), 1 + (v >> 60));
  }
  return acc;
}

/// Overwrite the mode word of the record that starts at `at` with 1 when
/// `legacy`, and return the offset of the record that follows it.
std::size_t flag_record(std::vector<std::uint8_t>& bytes, std::size_t at,
                        bool legacy) {
  std::uint64_t pairs = 0;
  std::memcpy(&pairs, bytes.data() + at + 16, sizeof pairs);
  if (legacy) {
    const std::uint64_t one = 1;
    std::memcpy(bytes.data() + at + 8, &one, sizeof one);
  }
  return at + 24 + 16 * static_cast<std::size_t>(pairs);
}

/// Apply `c.mutation` to `bytes`; `other` is the splice donor.
void mutate(std::vector<std::uint8_t>& bytes,
            const std::vector<std::uint8_t>& other, const MutationCase& c,
            std::uint64_t& state) {
  switch (c.mutation) {
    case Mutation::kFlip: {
      const std::uint64_t flips = 1 + next(state) % 4;
      for (std::uint64_t k = 0; k < flips; ++k) {
        const std::uint64_t v = next(state);
        const auto mask = static_cast<std::uint8_t>(1 + (v >> 56) % 255);
        bytes[v % bytes.size()] ^= mask;
      }
      break;
    }
    case Mutation::kTruncate:
      bytes.resize(next(state) % bytes.size());
      break;
    case Mutation::kSplice: {
      const std::size_t cut = next(state) % (bytes.size() + 1);
      const std::size_t from = next(state) % (other.size() + 1);
      bytes.resize(cut);
      bytes.insert(bytes.end(),
                   other.begin() + static_cast<std::ptrdiff_t>(from),
                   other.end());
      break;
    }
    case Mutation::kField: {
      const std::uint64_t p2 = std::uint64_t{c.procs} * c.procs;
      const std::uint64_t values[] = {0, p2, p2 - 1, ~std::uint64_t{0}};
      const std::size_t fields = bytes.size() / sizeof(std::uint64_t);
      // Half the overwrites land on a record header (procs, mode, pairs).
      std::size_t field = next(state) % fields;
      if (next(state) % 2 == 0) field %= 3;
      const std::uint64_t value = values[next(state) % 4];
      std::memcpy(bytes.data() + field * sizeof(std::uint64_t), &value,
                  sizeof(value));
      break;
    }
  }
}

/// nullopt when `acc` is a sealed, well-formed histogram.
std::optional<std::string> well_formed(const core::RankPairAccumulator& acc) {
  const std::uint64_t p = acc.procs();
  if (p == 0) return "decoded a histogram with zero ranks";
  std::uint64_t pairs = 0;
  std::uint64_t prev = 0;
  std::optional<std::string> bad;
  acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t count) {
    const std::uint64_t key = std::uint64_t{a} * p + b;
    if (bad) return;
    if (a >= p || b >= p) {
      bad = "key " + std::to_string(key) + " >= p² for p=" + std::to_string(p);
    } else if (count == 0) {
      bad = "zero count at key " + std::to_string(key);
    } else if (pairs != 0 && key <= prev) {
      bad = "key " + std::to_string(key) + " after " + std::to_string(prev);
    }
    prev = key;
    ++pairs;
  });
  if (bad) return bad;
  // Sealed: the histogram holds its pairs and nothing else.
  const std::size_t entry = sizeof(std::pair<std::uint64_t, std::uint64_t>);
  if (acc.memory_bytes() != pairs * entry) {
    return "histogram not sealed: " +
           std::to_string(acc.memory_bytes()) + " bytes for " +
           std::to_string(pairs) + " pairs";
  }
  return std::nullopt;
}

TEST(CodecMutation, RankPairRecordDecodesOrIsRejected) {
  SFCACD_PBT_CHECK(
      mutation_case(),
      [](const MutationCase& c) -> std::optional<std::string> {
        std::uint64_t state = c.seed;
        std::vector<std::uint8_t> bytes;
        core::rank_pairs_serialize(histogram(c.procs, c.events, state), bytes);
        flag_record(bytes, 0, c.legacy);
        std::vector<std::uint8_t> other;
        core::rank_pairs_serialize(
            histogram(c.procs % 64 + 1, c.events / 2 + 1, state), other);
        flag_record(other, 0, !c.legacy);
        mutate(bytes, other, c, state);
        std::size_t off = 0;
        const auto back =
            core::rank_pairs_deserialize(bytes.data(), bytes.size(), off);
        if (!back) return std::nullopt;
        if (off > bytes.size()) return "offset ran past the payload";
        return well_formed(*back);
      });
}

TEST(CodecMutation, FfiHistogramsDecodeOrAreRejected) {
  SFCACD_PBT_CHECK(
      mutation_case(),
      [](const MutationCase& c) -> std::optional<std::string> {
        std::uint64_t state = c.seed;
        fmm::FfiHistograms hist(c.procs);
        hist.interpolation = histogram(c.procs, c.events, state);
        hist.interaction = histogram(c.procs, c.events / 3, state);
        std::vector<std::uint8_t> bytes;
        fmm::ffi_histograms_serialize(hist, bytes);
        flag_record(bytes, flag_record(bytes, 0, c.legacy), !c.legacy);
        fmm::FfiHistograms donor(c.procs % 64 + 1);
        donor.interpolation =
            histogram(c.procs % 64 + 1, c.events / 2 + 1, state);
        donor.interaction =
            histogram(c.procs % 64 + 1, c.events / 2 + 1, state);
        std::vector<std::uint8_t> other;
        fmm::ffi_histograms_serialize(donor, other);
        flag_record(other, flag_record(other, 0, c.legacy), c.legacy);
        mutate(bytes, other, c, state);
        std::size_t off = 0;
        const auto back =
            fmm::ffi_histograms_deserialize(bytes.data(), bytes.size(), off);
        if (!back) return std::nullopt;
        if (off > bytes.size()) return "offset ran past the payload";
        if (back->interpolation.procs() != back->interaction.procs()) {
          return "decoded families disagree on the processor count";
        }
        if (auto bad = well_formed(back->interpolation)) {
          return "interpolation: " + *bad;
        }
        if (auto bad = well_formed(back->interaction)) {
          return "interaction: " + *bad;
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace sfc
