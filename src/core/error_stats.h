// Reconstruction-error statistics and thresholding (paper §3.1.4).

#ifndef DQUAG_CORE_ERROR_STATS_H_
#define DQUAG_CORE_ERROR_STATS_H_

#include <cstdint>
#include <vector>

namespace dquag {

/// Instance reconstruction error (§3.1.4): the mean over `d` features of
/// (pred - target)^2, accumulated in double. Training calibrates the
/// threshold on these numbers and validation compares against it, so both
/// call this one function.
double RowReconstructionError(const float* pred, const float* target,
                              int64_t d);

/// Linear-interpolated percentile of a sample (p in [0, 1]).
double Percentile(std::vector<double> values, double p);

/// Summary of the clean-data reconstruction-error distribution collected
/// during training. `threshold` is the e_threshold of §3.1.4.
struct ErrorStatistics {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double threshold = 0.0;  // percentile-based e_threshold

  static ErrorStatistics FromErrors(const std::vector<double>& errors,
                                    double threshold_percentile);
};

}  // namespace dquag

#endif  // DQUAG_CORE_ERROR_STATS_H_
