#include "core/error_stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dquag {

double RowReconstructionError(const float* pred, const float* target,
                              int64_t d) {
  double sum = 0.0;
  for (int64_t c = 0; c < d; ++c) {
    const double delta = static_cast<double>(pred[c]) - target[c];
    sum += delta * delta;
  }
  return sum / static_cast<double>(d);
}

double Percentile(std::vector<double> values, double p) {
  DQUAG_CHECK(!values.empty());
  DQUAG_CHECK_GE(p, 0.0);
  DQUAG_CHECK_LE(p, 1.0);
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ErrorStatistics ErrorStatistics::FromErrors(const std::vector<double>& errors,
                                            double threshold_percentile) {
  DQUAG_CHECK(!errors.empty());
  ErrorStatistics stats;
  double sum = 0.0, sum_sq = 0.0;
  stats.min = errors[0];
  stats.max = errors[0];
  for (double e : errors) {
    sum += e;
    sum_sq += e * e;
    stats.min = std::min(stats.min, e);
    stats.max = std::max(stats.max, e);
  }
  const double n = static_cast<double>(errors.size());
  stats.mean = sum / n;
  stats.stddev = std::sqrt(std::max(0.0, sum_sq / n - stats.mean * stats.mean));
  stats.threshold = Percentile(errors, threshold_percentile);
  return stats;
}

}  // namespace dquag
