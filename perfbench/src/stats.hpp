// Order statistics for host-time samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Nearest-rank quantile, q in (0, 1].
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

// The highest percentile of a fixed ladder that has at least ten samples
// beyond it (nearest-rank), so a tail figure is never one unlucky sample.
// The ladder steps tenfold in tail mass: runs whose sample counts differ by
// less than 10x (host speed modes) report the same percentile.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

inline Tail tail_of(std::vector<double> xs) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  for (const double p : {99.9, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
    t = {p, xs[k - 1], n - k};
    if (t.beyond >= 10) break;
  }
  return t;
}

}  // namespace perfbench
