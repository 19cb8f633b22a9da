#include "core/validator.h"

#include <algorithm>
#include <cmath>

namespace dquag {

Validator::Validator(const DquagModel* model,
                     const TablePreprocessor* preprocessor, double threshold,
                     const DquagConfig& config)
    : model_(model),
      preprocessor_(preprocessor),
      threshold_(threshold),
      config_(config) {
  DQUAG_CHECK(model_ != nullptr);
}

double Validator::batch_cutoff() const {
  return (1.0 - config_.threshold_percentile) *
         config_.batch_flag_multiplier;
}

BatchVerdict Validator::Validate(const Table& batch,
                                 const ValidationMode& mode) const {
  DQUAG_CHECK(preprocessor_ != nullptr);
  return ValidateMatrix(preprocessor_->Transform(batch), mode);
}

void Validator::ValidateRowsInto(const Tensor& matrix, int64_t start,
                                 int64_t end, InferenceContext& ctx,
                                 InstanceVerdict* out,
                                 const ValidationMode& mode) const {
  DQUAG_CHECK_EQ(matrix.ndim(), 2);
  DQUAG_CHECK_EQ(matrix.dim(1), model_->num_features());
  DQUAG_CHECK_GE(start, 0);
  DQUAG_CHECK_LE(start, end);
  DQUAG_CHECK_LE(end, matrix.dim(0));
  const int64_t d = matrix.dim(1);

  ctx.Rewind();
  Tensor& slice = ctx.Acquire({end - start, d});
  std::copy(matrix.data() + start * d, matrix.data() + end * d, slice.data());

  if (!mode.quantized) {
    const Tensor& reconstructed = model_->InferValidation(slice, ctx);
    ScoreRowsInto(reconstructed.data(), slice.data(), end - start, out);
    return;
  }

  // Quantized pass. The flag is restored before returning so a shared
  // (thread-local) context never leaks quantized mode into float callers.
  ctx.set_quantized(true);
  const Tensor& recon_q = model_->InferValidation(slice, ctx);
  ctx.set_quantized(false);
  ScoreRowsInto(recon_q.data(), slice.data(), end - start, out);

  // Rows whose quantized error landed inside the margin band around the
  // threshold are re-validated on the float path, which is authoritative.
  const double band = mode.recheck_margin * threshold_;
  std::vector<int64_t> recheck;
  for (int64_t r = 0; r < end - start; ++r) {
    if (std::abs(out[r].error - threshold_) <= band) {
      recheck.push_back(r);
    }
  }
  if (recheck.empty()) return;

  const size_t mark = ctx.Mark();
  Tensor& sub = ctx.Acquire({static_cast<int64_t>(recheck.size()), d});
  for (size_t i = 0; i < recheck.size(); ++i) {
    const float* src = slice.data() + recheck[i] * d;
    std::copy(src, src + d, sub.data() + static_cast<int64_t>(i) * d);
  }
  const Tensor& recon_f = model_->InferValidation(sub, ctx);
  std::vector<InstanceVerdict> fixed(recheck.size());
  ScoreRowsInto(recon_f.data(), sub.data(),
                static_cast<int64_t>(recheck.size()), fixed.data());
  for (size_t i = 0; i < recheck.size(); ++i) {
    out[recheck[i]] = std::move(fixed[i]);
  }
  ctx.RewindTo(mark);
}

void Validator::ScoreRowsInto(const float* prediction, const float* targets,
                              int64_t rows, InstanceVerdict* out) const {
  const int64_t d = model_->num_features();
  for (int64_t r = 0; r < rows; ++r) {
    InstanceVerdict& inst = out[r];
    const float* pred = prediction + r * d;
    const float* target = targets + r * d;
    const double mean = RowReconstructionError(pred, target, d);
    inst.error = mean;
    inst.flagged = mean > threshold_;
    inst.suspect_features.clear();
    if (!inst.flagged) continue;
    // Feature-level outliers: e_ij > mu_i + k * sigma_i (§3.2.1). The
    // maximum z-score attainable among d values is (d-1)/sqrt(d), so k is
    // capped below that bound — otherwise the rule could never fire on
    // low-dimensional tables (see DESIGN.md on the paper's k = 5).
    auto feature_error = [&](int64_t c) {
      const double delta = static_cast<double>(pred[c]) - target[c];
      return delta * delta;
    };
    double variance = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      const double delta = feature_error(c) - mean;
      variance += delta * delta;
    }
    variance /= static_cast<double>(d);
    const double max_z =
        static_cast<double>(d - 1) / std::sqrt(static_cast<double>(d));
    const double k = std::min(config_.feature_sigma_k, 0.8 * max_z);
    const double cutoff = mean + k * std::sqrt(variance);
    int64_t worst_feature = 0;
    for (int64_t c = 0; c < d; ++c) {
      if (feature_error(c) > feature_error(worst_feature)) {
        worst_feature = c;
      }
      if (feature_error(c) > cutoff) {
        inst.suspect_features.push_back(c);
      }
    }
    // A flagged instance always blames at least its worst feature so the
    // repair phase has something to fix.
    if (inst.suspect_features.empty()) {
      inst.suspect_features.push_back(worst_feature);
    }
  }
}

void Validator::FinalizeVerdict(BatchVerdict& verdict) const {
  const size_t rows = verdict.instances.size();
  verdict.flagged_rows.clear();
  for (size_t r = 0; r < rows; ++r) {
    if (verdict.instances[r].flagged) verdict.flagged_rows.push_back(r);
  }
  verdict.flagged_fraction =
      rows == 0 ? 0.0
                : static_cast<double>(verdict.flagged_rows.size()) /
                      static_cast<double>(rows);
  verdict.is_dirty = verdict.flagged_fraction > batch_cutoff();
}

BatchVerdict Validator::ValidateMatrix(const Tensor& matrix,
                                       const ValidationMode& mode) const {
  DQUAG_CHECK_EQ(matrix.ndim(), 2);
  DQUAG_CHECK_EQ(matrix.dim(1), model_->num_features());
  const int64_t rows = matrix.dim(0);

  BatchVerdict verdict;
  verdict.threshold = threshold_;
  verdict.instances.resize(static_cast<size_t>(rows));

  InferenceContext& ctx = InferenceContext::ThreadLocal();
  const int64_t chunk = config_.inference_chunk_rows;
  for (int64_t start = 0; start < rows; start += chunk) {
    const int64_t end = std::min(rows, start + chunk);
    ValidateRowsInto(matrix, start, end, ctx,
                     verdict.instances.data() + start, mode);
  }
  FinalizeVerdict(verdict);
  return verdict;
}

}  // namespace dquag
