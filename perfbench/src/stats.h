// Order statistics shared by the workloads and the report.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Nearest-rank percentile, p in (0, 100].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it; 50
/// when even p75 has fewer.
inline double TailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
