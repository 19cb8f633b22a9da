#include "nn/adam.h"

#include <cmath>

#include "util/thread_pool.h"

namespace dquag {

namespace {

/// Below this total parameter count the pool dispatch costs more than the
/// update itself; paper-scale models sit near the boundary, wide ones gain.
constexpr int64_t kParallelStepThreshold = int64_t{1} << 16;

}  // namespace

Adam::Adam(std::vector<VarPtr> parameters, AdamOptions options)
    : parameters_(std::move(parameters)), options_(options) {
  first_moment_.reserve(parameters_.size());
  second_moment_.reserve(parameters_.size());
  for (const VarPtr& p : parameters_) {
    first_moment_.push_back(Tensor::Zeros(p->value().shape()));
    second_moment_.push_back(Tensor::Zeros(p->value().shape()));
    total_numel_ += p->value().numel();
  }
}

void Adam::Step() {
  ++step_count_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float one_minus_b1 = 1.0f - b1;
  const float one_minus_b2 = 1.0f - b2;
  // Bias corrections hoisted out of the inner loops: one divide per step
  // instead of two per element.
  const float inv_bias1 =
      1.0f / (1.0f - std::pow(b1, static_cast<float>(step_count_)));
  const float inv_bias2 =
      1.0f / (1.0f - std::pow(b2, static_cast<float>(step_count_)));
  const float lr = options_.learning_rate;
  const float eps = options_.epsilon;
  const float decay = options_.weight_decay;

  const auto update_param = [&](size_t i) {
    Variable& p = *parameters_[i];
    if (!p.has_grad()) return;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = first_moment_[i].data();
    float* v = second_moment_[i].data();
    const int64_t n = p.value().numel();
    // The decay test is loop-invariant; two specialized loops keep the hot
    // (decay-free) path branchless and vectorizable.
    if (decay > 0.0f) {
      for (int64_t j = 0; j < n; ++j) {
        const float gj = g[j] + decay * w[j];
        m[j] = b1 * m[j] + one_minus_b1 * gj;
        v[j] = b2 * v[j] + one_minus_b2 * gj * gj;
        w[j] -= lr * m[j] * inv_bias1 /
                (std::sqrt(v[j] * inv_bias2) + eps);
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        const float gj = g[j];
        m[j] = b1 * m[j] + one_minus_b1 * gj;
        v[j] = b2 * v[j] + one_minus_b2 * gj * gj;
        w[j] -= lr * m[j] * inv_bias1 /
                (std::sqrt(v[j] * inv_bias2) + eps);
      }
    }
  };

  // Parameters update independently, so fanning out over the pool cannot
  // change results — each element's math is identical on any thread count.
  if (total_numel_ < kParallelStepThreshold) {
    for (size_t i = 0; i < parameters_.size(); ++i) update_param(i);
    return;
  }
  RunTasksAndWait(pool_ != nullptr ? *pool_ : GlobalThreadPool(),
                  static_cast<int64_t>(parameters_.size()),
                  [&](int64_t i) { update_param(static_cast<size_t>(i)); });
}

void Adam::ZeroGrad() {
  for (const VarPtr& p : parameters_) p->ZeroGrad();
}

}  // namespace dquag
