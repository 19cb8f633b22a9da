// Free-function math over Tensor.
//
// Everything here is purely functional: inputs are const, results are new
// tensors. Shapes follow NumPy broadcasting for elementwise binary ops.
// The gather / scatter / segment-softmax kernels operate along axis 1 of
// [B, N, H] tensors because model instances are batched as
// [batch, node, channel]; they are the message-passing primitives of the GNN
// layers and run in O(B * E * H).

#ifndef DQUAG_TENSOR_TENSOR_OPS_H_
#define DQUAG_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dquag {

// ---- Broadcasting ----------------------------------------------------------

/// Sums `t` down to `target` shape (inverse of broadcasting); used by
/// autograd to reduce gradients of broadcast operands.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---- Elementwise binary (broadcasting) -------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---- Elementwise unary -----------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// ---- Matrix multiplication -------------------------------------------------

/// MatMul supports:
///   [m,k] x [k,n]    -> [m,n]
///   [B,m,k] x [k,n]  -> [B,m,n]   (shared right operand)
///   [B,m,k] x [B,k,n]-> [B,m,n]   (batched both sides)
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two axes of a 2-D or 3-D tensor.
Tensor TransposeLast2(const Tensor& a);

/// A^T * B without materializing the transpose: a is [m, k] (or [B, m, k],
/// flattened over the leading axes), b is [m, n] (same leading shape);
/// result [k, n]. This is the dW of a shared-weight matmul.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// A * B^T without materializing the transpose: a is [..., m, n], b is
/// [k, n]; result [..., m, k]. This is the dX of y = x W.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

// ---- Reductions ------------------------------------------------------------

float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// Sum over one axis. keepdims retains the reduced axis with size 1.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Max(const Tensor& a, int64_t axis, bool keepdims = false);

/// Softmax along `axis`.
Tensor Softmax(const Tensor& a, int64_t axis);

// ---- Structural ops --------------------------------------------------------

/// Concatenates tensors along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Slice [start, end) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);

/// Inserts a size-1 axis at `axis`.
Tensor Unsqueeze(const Tensor& a, int64_t axis);

/// Removes a size-1 axis at `axis`.
Tensor Squeeze(const Tensor& a, int64_t axis);

// ---- Graph kernels (axis-1 of [B, N, H]) -----------------------------------

/// out[b, e, :] = t[b, indices[e], :].  t is [B, N, H], result [B, E, H].
/// Also accepts 2-D [N, H] -> [E, H].
Tensor GatherAxis1(const Tensor& t, const std::vector<int32_t>& indices);

/// out[b, indices[e], :] += src[b, e, :].  src is [B, E, H], result
/// [B, num_rows, H]. Also accepts 2-D [E, H] -> [num_rows, H].
Tensor ScatterAddAxis1(const Tensor& src, const std::vector<int32_t>& indices,
                       int64_t num_rows);

/// Per-batch softmax over groups of entries that share a segment id:
/// out[b, e] = exp(s[b,e] - max_seg) / sum_{e': seg[e']=seg[e]} exp(...).
/// scores is [B, E] (or [E]); segments has length E with values in
/// [0, num_segments). Empty segments are fine.
Tensor SegmentSoftmaxAxis1(const Tensor& scores,
                           const std::vector<int32_t>& segments,
                           int64_t num_segments);

/// Per-batch segment sum: out[b, seg[e]] += values[b, e]; result
/// [B, num_segments] (or [num_segments] for 1-D input).
Tensor SegmentSumAxis1(const Tensor& values,
                       const std::vector<int32_t>& segments,
                       int64_t num_segments);

// ---- Preallocated-output kernels (tape-free inference engine) --------------
//
// These variants write into caller-owned tensors so the engine's per-thread
// workspaces (engine/inference_context.h) are reused across calls: no
// allocation and no redundant zero-fill on the hot path. `out` must already
// have the documented shape (the engine acquires it at the right size).

/// out = x W (+ bias along the last axis). x is [*, in] with the weight
/// shared over all leading axes; out must hold numel(x)/in * out_features
/// elements (its exact shape is the caller's business — [B, N] outputs of
/// [in, 1] weights flatten for free). Overwrites out.
void LinearInto(const Tensor& x, const Tensor& w, const Tensor* bias,
                Tensor& out);

/// Overwrites every row of out's last axis with `row` (shape [cols]).
void BroadcastRowInto(const Tensor& row, Tensor& out);

/// Two matrix-vector products in one pass over x: out1 = x w1, out2 = x w2
/// with w1 / w2 of shape [k] or [k, 1] and x of shape [*, k]. Reads x once
/// — the GAT source/destination logit pair. Overwrites out1 / out2 (each
/// holding numel(x)/k elements).
void DualMatVecInto(const Tensor& x, const Tensor& w1, const Tensor& w2,
                    Tensor& out1, Tensor& out2);

/// out[i] = s * x[i]; shapes must have equal numel. Overwrites out.
void ScaleInto(const Tensor& x, float s, Tensor& out);

/// Fused gather–scale–scatter (one memory pass over the arcs):
///   out[b, dst[e], :] += coeff[e] * x[b, src[e], :]
/// x and out are [B, N, H] (or 2-D [N, H]). coeff may be null for unit
/// weights (GIN's neighbour sum). Accumulates into out, does not clear it.
void GatherScaleScatterAddInto(const Tensor& x,
                               const std::vector<int32_t>& src,
                               const std::vector<int32_t>& dst,
                               const float* coeff, Tensor& out);

/// Per-arc GAT logits: out[b, e] = LeakyRelu(ls[b, src[e]] + ld[b, dst[e]]).
/// ls and ld hold B*N elements ([B, N] or [B, N, 1]); out holds B*E.
void ArcScoreInto(const Tensor& logit_src, const Tensor& logit_dst,
                  const std::vector<int32_t>& src,
                  const std::vector<int32_t>& dst, float negative_slope,
                  Tensor& out);

/// In-place segment softmax over CSR-grouped entries: `offsets` has one
/// entry per segment plus an end sentinel, and order[offsets[s] ..
/// offsets[s+1]) lists the entry ids of segment s. scores holds B*E
/// elements; each segment of each batch row is softmaxed independently.
void SegmentSoftmaxCsrInPlace(Tensor& scores,
                              const std::vector<int64_t>& offsets,
                              const std::vector<int32_t>& order);

// ---- Fused backward kernels (training fast path) ---------------------------
//
// Accumulating counterparts of the gradient formulas in autograd/ops.cc:
// each reads the upstream gradient once and adds (+=) straight into the
// destination — a tape node's gradient, a parameter's gradient, or a
// per-shard gradient sink — replacing the allocate-temporary-then-
// AccumulateGrad pattern. Element counts must match; exact shapes are the
// caller's contract (gradients are accumulated through Reshape for free).

/// out += s * x (equal numel).
void AddScaledInto(const Tensor& x, float s, Tensor& out);

/// out += s * a * b (equal numel; the Mul/Square backward).
void AddProductInto(const Tensor& a, const Tensor& b, float s, Tensor& out);

/// out += broadcast(g): g is out's shape with some axes of size 1, or a
/// single element. The Sum/SumAll backward without the zeros temporary.
void BroadcastAddInto(const Tensor& g, Tensor& out);

/// out[k, n] += A^T B with a of shape [*, m, k] (leading axes flattened)
/// and b [*, m, n]: the dW of a shared-weight matmul, fused into the
/// accumulation target.
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor& out);

/// out[..., m, k] += A B^T with b [k, n]: the dX of y = x W.
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor& out);

/// out += g where x > 0 (ReLU backward; single pass, no masked copy).
void ReluBackwardInto(const Tensor& x, const Tensor& g, Tensor& out);

/// out += g * (x > 0 ? 1 : negative_slope).
void LeakyReluBackwardInto(const Tensor& x, float negative_slope,
                           const Tensor& g, Tensor& out);

/// out += g * (x > 0 ? 1 : y + alpha), with y = elu(x) saved from forward.
/// Branch-free inner select so the loop vectorizes.
void EluBackwardInto(const Tensor& x, const Tensor& y, float alpha,
                     const Tensor& g, Tensor& out);

/// out += g * y * (1 - y), with y = sigmoid(x) saved from forward.
void SigmoidBackwardInto(const Tensor& y, const Tensor& g, Tensor& out);

/// out += g * (1 - y^2), with y = tanh(x) saved from forward.
void TanhBackwardInto(const Tensor& y, const Tensor& g, Tensor& out);

/// out[b, indices[e], :] += src[b, e, :] (GatherAxis1 backward).
void ScatterAddAxis1Into(const Tensor& src,
                         const std::vector<int32_t>& indices, Tensor& out);

/// out[b, e, :] += t[b, indices[e], :] (ScatterAddAxis1 backward).
void GatherAddAxis1Into(const Tensor& t, const std::vector<int32_t>& indices,
                        Tensor& out);

/// Fused attention aggregation into a column stripe of out:
///   out[b, dst[e], col_offset + h] += alpha[b, e] * x[b, src[e], h]
/// x is [B, N, H_head] (or 2-D), alpha holds B*E elements, out is
/// [B, N, H_out] with col_offset + H_head <= H_out — multi-head concat
/// without a Concat copy. Accumulates into out.
void AttentionScatterAddInto(const Tensor& x, const Tensor& alpha,
                             const std::vector<int32_t>& src,
                             const std::vector<int32_t>& dst, Tensor& out,
                             int64_t col_offset);

}  // namespace dquag

#endif  // DQUAG_TENSOR_TENSOR_OPS_H_
