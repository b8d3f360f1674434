#include "core/rank_pair.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace sfc::core {

RankPairAccumulator RankPairAccumulator::from_sorted(
    topo::Rank procs, std::vector<Entry> pairs) {
#ifndef NDEBUG
  const std::uint64_t p2 = static_cast<std::uint64_t>(procs) * procs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    assert(pairs[i].first < p2 && pairs[i].second != 0);
    assert(i == 0 || pairs[i - 1].first < pairs[i].first);
  }
#endif
  RankPairAccumulator acc(procs);
  acc.sorted_ = std::move(pairs);
  acc.seal();
  return acc;
}

void RankPairAccumulator::stage(topo::Rank src, topo::Rank dst,
                                std::uint64_t count) {
  staging_.emplace_back(static_cast<std::uint64_t>(src) * p_ + dst, count);
  if (staging_.size() >= kStagingCap) compact();
}

void RankPairAccumulator::compact() const {
  if (staging_.empty()) return;
  std::sort(staging_.begin(), staging_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Entry> merged;
  merged.reserve(sorted_.size() + staging_.size());
  std::size_t i = 0, j = 0;
  auto push = [&merged](std::uint64_t key, std::uint64_t count) {
    if (!merged.empty() && merged.back().first == key) {
      merged.back().second += count;
    } else {
      merged.emplace_back(key, count);
    }
  };
  while (i < sorted_.size() && j < staging_.size()) {
    if (sorted_[i].first <= staging_[j].first) {
      push(sorted_[i].first, sorted_[i].second);
      ++i;
    } else {
      push(staging_[j].first, staging_[j].second);
      ++j;
    }
  }
  for (; i < sorted_.size(); ++i) push(sorted_[i].first, sorted_[i].second);
  for (; j < staging_.size(); ++j) push(staging_[j].first, staging_[j].second);
  // Drop fully retracted pairs: sub() stages modular negatives, and a
  // pair whose adds and subs cancel must not survive as a zero entry —
  // for_each/view promise nonzero counts, and the dynamic path would
  // otherwise grow the sorted list with every touched-then-restored pair.
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const auto& e) { return e.second == 0; }),
               merged.end());
  sorted_.swap(merged);
  staging_.clear();
}

void RankPairAccumulator::seal() const {
  compact();
  // Guarded, so sealing a sealed histogram writes nothing.
  if (staging_.capacity() != 0) {
    std::vector<Entry>().swap(staging_);
  }
  if (sorted_.capacity() != sorted_.size()) sorted_.shrink_to_fit();
}

RankPairAccumulator& RankPairAccumulator::operator+=(
    const RankPairAccumulator& o) {
  o.for_each([this](topo::Rank a, topo::Rank b, std::uint64_t count) {
    add(a, b, count);
  });
  return *this;
}

CommTotals RankPairAccumulator::fold(const topo::DistanceTable& table) const {
  CommTotals totals;
  for_each([&totals, &table](topo::Rank a, topo::Rank b, std::uint64_t count) {
    totals.hops += count * table(a, b);
    totals.count += count;
  });
  return totals;
}

CommTotals RankPairAccumulator::fold(const topo::Topology& net) const {
  CommTotals totals;
  for_each([&totals, &net](topo::Rank a, topo::Rank b, std::uint64_t count) {
    totals.hops += count * net.distance(a, b);
    totals.count += count;
  });
  return totals;
}

namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[8];
  std::memcpy(buf, &v, sizeof buf);
  out.insert(out.end(), buf, buf + sizeof buf);
}

bool read_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
              std::uint64_t& v) {
  if (offset > size || size - offset < 8) return false;
  std::memcpy(&v, data + offset, 8);
  offset += 8;
  return true;
}

}  // namespace

void rank_pairs_serialize(const RankPairAccumulator& acc,
                          std::vector<std::uint8_t>& out) {
  acc.seal();
  append_u64(out, acc.procs());
  append_u64(out, 0);
  std::uint64_t pairs = 0;
  acc.for_each([&pairs](topo::Rank, topo::Rank, std::uint64_t) { ++pairs; });
  append_u64(out, pairs);
  out.reserve(out.size() + pairs * 16);
  const std::uint64_t p = acc.procs();
  acc.for_each([&out, p](topo::Rank a, topo::Rank b, std::uint64_t count) {
    append_u64(out, static_cast<std::uint64_t>(a) * p + b);
    append_u64(out, count);
  });
}

std::optional<RankPairAccumulator> rank_pairs_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  std::uint64_t procs = 0, mode = 0, pairs = 0;
  if (!read_u64(data, size, offset, procs) ||
      !read_u64(data, size, offset, mode) ||
      !read_u64(data, size, offset, pairs)) {
    return std::nullopt;
  }
  // Mode 1 marks a record written when small histograms were stored as
  // p² arrays; its payload is the same key-ordered pair list.
  if (procs == 0 || procs > 0xffffffffull || mode > 1) return std::nullopt;
  if (pairs > (size - offset) / 16) return std::nullopt;
  const std::uint64_t p2 = procs * procs;
  // The serializer writes nonzero counts in strictly increasing key
  // order, so the record is already the sorted list: no sort, no merge.
  std::vector<RankPairAccumulator::Entry> sorted;
  sorted.reserve(static_cast<std::size_t>(pairs));
  for (std::uint64_t i = 0; i < pairs; ++i) {
    std::uint64_t key = 0, count = 0;
    if (!read_u64(data, size, offset, key) ||
        !read_u64(data, size, offset, count)) {
      return std::nullopt;
    }
    if (key >= p2 || count == 0 ||
        (!sorted.empty() && key <= sorted.back().first)) {
      return std::nullopt;
    }
    sorted.emplace_back(key, count);
  }
  return RankPairAccumulator::from_sorted(static_cast<topo::Rank>(procs),
                                          std::move(sorted));
}

std::uint64_t RankPairAccumulator::events() const {
  std::uint64_t n = 0;
  for_each([&n](topo::Rank, topo::Rank, std::uint64_t count) { n += count; });
  return n;
}

}  // namespace sfc::core
