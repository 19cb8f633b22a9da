// Phase 2: data quality validation (paper §3.2.1).
//
// New data is preprocessed with the clean-data encoders, reconstructed by
// the validation decoder, and compared against e_threshold:
//   * instance flagged   <=> its reconstruction error > e_threshold
//   * batch flagged      <=> flagged fraction > 5% * n  (n = 1.2)
//   * feature flagged    <=> its error > mu_i + k * sigma_i within the
//                            flagged instance
// Validation runs on the tape-free inference engine in fixed-size chunks;
// rows are independent along the batch axis, so any chunking (serial or the
// ValidationService's parallel micro-batches) produces identical verdicts.

#ifndef DQUAG_CORE_VALIDATOR_H_
#define DQUAG_CORE_VALIDATOR_H_

#include <cstdint>
#include <vector>

#include "core/error_stats.h"
#include "core/model.h"
#include "data/preprocessor.h"
#include "engine/inference_context.h"

namespace dquag {

/// How the validator runs the reconstruction forward pass.
///
/// The quantized mode trades the float GEMMs for int8 ones (per-channel
/// symmetric weights, dynamic per-row activations). Quantization perturbs
/// reconstruction errors slightly, so rows whose error lands within
/// `recheck_margin * threshold` of the decision boundary are re-validated
/// on the float path, which stays authoritative: a verdict can only differ
/// from the float path when the quantized error lands clearly outside the
/// margin band, i.e. when quantization noise exceeds 25% of the threshold.
/// On clean data (errors far below threshold) this makes flips vanishingly
/// rare.
struct ValidationMode {
  bool quantized = false;
  double recheck_margin = 0.25;
};

/// Verdict for one instance of a validated batch.
struct InstanceVerdict {
  double error = 0.0;
  bool flagged = false;
  /// Column indices whose per-feature error exceeded mu + k*sigma (only
  /// populated for flagged instances).
  std::vector<int64_t> suspect_features;
};

/// Verdict for a whole batch / dataset.
struct BatchVerdict {
  bool is_dirty = false;
  double flagged_fraction = 0.0;
  double threshold = 0.0;
  std::vector<size_t> flagged_rows;
  std::vector<InstanceVerdict> instances;
};

class Validator {
 public:
  /// `model` and `preprocessor` must outlive the validator. `threshold` is
  /// the e_threshold collected in Phase 1.
  Validator(const DquagModel* model, const TablePreprocessor* preprocessor,
            double threshold, const DquagConfig& config);

  /// Validates a table (preprocess + reconstruct + threshold).
  BatchVerdict Validate(const Table& batch,
                        const ValidationMode& mode = {}) const;

  /// Validates an already-preprocessed matrix [B, d].
  BatchVerdict ValidateMatrix(const Tensor& matrix,
                              const ValidationMode& mode = {}) const;

  /// Engine-path validation of rows [start, end) of `matrix`, writing the
  /// per-instance verdicts into out[0 .. end-start). `ctx` is the calling
  /// thread's workspace (rewound internally). Thread-safe for disjoint row
  /// ranges over one fitted model — the fan-out primitive of the
  /// ValidationService. With mode.quantized the forward pass runs on the
  /// int8 engine and margin-band rows are re-checked on the float path
  /// (see ValidationMode).
  void ValidateRowsInto(const Tensor& matrix, int64_t start, int64_t end,
                        InferenceContext& ctx, InstanceVerdict* out,
                        const ValidationMode& mode = {}) const;

  /// Derives the batch-level verdict fields (flagged_rows, fraction,
  /// is_dirty) from already-filled per-instance verdicts. Shared by serial
  /// validation and the ValidationService's parallel path so the
  /// dirty-batch rule lives in exactly one place.
  void FinalizeVerdict(BatchVerdict& verdict) const;

  double threshold() const { return threshold_; }
  /// The batch dirty-fraction cutoff: (1 - percentile) * n.
  double batch_cutoff() const;

 private:
  /// Scores `rows` reconstructed rows against their inputs: per-instance
  /// error (RowReconstructionError), flag, suspect features. Shared by the
  /// float and quantized passes so the decision rule lives in one place.
  void ScoreRowsInto(const float* pred, const float* target, int64_t rows,
                     InstanceVerdict* out) const;

  const DquagModel* model_;
  const TablePreprocessor* preprocessor_;
  double threshold_;
  DquagConfig config_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_VALIDATOR_H_
