// Reconstruction losses used by the dual decoders (§3.1.2).

#ifndef DQUAG_NN_LOSSES_H_
#define DQUAG_NN_LOSSES_H_

#include "autograd/variable.h"

namespace dquag {

/// Plain mean-squared-error over all elements:
/// L = mean((pred - target)^2). Used by the repair decoder.
VarPtr MseLoss(const VarPtr& pred, const VarPtr& target);

/// Sample-weighted MSE over [B, d] (or [B, d, 1]) reconstructions:
/// L = (1/B) * sum_i w_i * ||pred_i - target_i||^2 / d.
/// `weights` is a detached [B] tensor. Used by the validation decoder, which
/// up-weights samples that already reconstruct well (paper §3.1.2).
VarPtr WeightedMseLoss(const VarPtr& pred, const VarPtr& target,
                       const Tensor& weights);

/// Per-sample reconstruction errors (mean squared error per row): [B].
/// Pure tensor computation, no tape.
Tensor PerSampleErrors(const Tensor& pred, const Tensor& target);

/// One row of PerSampleErrors over raw pointers: mean_d((pred - target)^2)
/// with the same accumulation order and float scale. The sharded trainer
/// uses this for its loss weights so they stay bit-compatible with the
/// serial tensor form.
float PerSampleError(const float* pred, const float* target, int64_t d);

/// Per-sample-per-feature squared errors: [B, d].
Tensor PerFeatureErrors(const Tensor& pred, const Tensor& target);

/// Turns per-sample errors into validation-loss weights:
/// w_i = B * exp(-e_i / tau) / sum_j exp(-e_j / tau), tau = mean(e) + eps.
/// Smaller error => larger weight; weights average to 1.
Tensor ErrorsToWeights(const Tensor& per_sample_errors);

/// ErrorsToWeights into a caller-owned tensor (resized in place, so a
/// persistent buffer makes the per-step weight computation allocation-free
/// — the data-parallel trainer's path).
void ErrorsToWeightsInto(const float* errors, int64_t batch, Tensor& weights);

// ---- Sum-form partial losses (data-parallel training) ----------------------
//
// The sharded trainer computes each shard's un-normalized loss sum and
// scales by the global batch normalizer when combining, so the total
// matches the mean-form losses above up to float reassociation:
//   MseLoss           == sum_shards SquaredErrorSum / (B * d)
//   WeightedMseLoss   == sum_shards WeightedPerSampleErrorSum / B

/// sum((pred - target)^2) over all elements, as a [1] tape node.
VarPtr SquaredErrorSum(const VarPtr& pred, const VarPtr& target);

/// sum_i w_i * mean_d((pred_i - target_i)^2), as a [1] tape node.
/// `weights` is a detached [B] tensor (a slice of the batch weights).
VarPtr WeightedPerSampleErrorSum(const VarPtr& pred, const VarPtr& target,
                                 const Tensor& weights);

}  // namespace dquag

#endif  // DQUAG_NN_LOSSES_H_
