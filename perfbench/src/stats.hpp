// Order statistics and span arithmetic for the benchmark. Header-only and
// free of qsa dependencies so the tests can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// closest ranks: rank q*(n-1), so q=0 is the minimum, q=1 the maximum and
/// q=0.5 the usual median. Sorts `values` in place; 0 when empty.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

/// Mean of the middle half of `values`: the lowest and the highest
/// floor(n/4) values are dropped and the rest averaged (all of them below
/// four values). Like the median it ignores a lone outlier; unlike the
/// median it moves smoothly with the share of samples taken while the host
/// ran slow, instead of jumping to whichever speed held the majority.
/// 0 when empty.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// One traced call into a layer: [start_ns, end_ns) on the host's steady
/// clock. `parent` is the index of the enclosing span, or kNoParent.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap each other and may stick out of
/// the parent; only the union of their intervals clipped to the parent
/// counts, so no instant is subtracted twice.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

}  // namespace perfbench
