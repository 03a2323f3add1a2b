//===- ops/KernelsAttention.h - Fused attention / layernorm ------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-pass fused kernels for the transformer glue the generic fusion
/// machinery cannot collapse: the attention core
/// (softmax(scale * Q Kt + mask) V) and the decomposed LayerNorm.
///
/// The attention kernel streams keys in tiles through an online softmax
/// (running max m, running sum l, rescaled accumulator), so scores and
/// probabilities never materialize — the [S, S] intermediate that
/// dominates the unfused path's memory traffic stays in registers/L1.
/// The online rescaling reorders the accumulation relative to the
/// three-pass reference softmax, making this the repo's one deliberate
/// bit-identity relaxation: outputs agree with the unfused graph to
/// ~1e-6 relative (enforced under tolerance zoo-wide). The causal
/// variant skips masked-out key tiles entirely instead of adding -1e9;
/// exp(-1e9 + s) underflows to exactly 0.0f for any realistic score, so
/// the skipped terms contribute nothing to the reference sum either.
///
/// The layernorm kernel replays the decomposed graph's scalar operations
/// (ascending-index mean and variance sums, divide-by-N, per-element
/// (x - mean) / sqrt(var + eps) * gamma + beta) in the same order, and is
/// bit-identical to the expression-evaluated subgraph.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELSATTENTION_H
#define DNNFUSION_OPS_KERNELSATTENTION_H

#include "ops/KernelRegistry.h"

#include <cstdint>

namespace dnnfusion {

struct EngineCounters;

/// Head size cap of the fused attention kernel: the per-row accumulator
/// (and one V tile) must fit comfortably on the stack / in L1. Matchers
/// must not claim subgraphs with Dh above this.
inline constexpr int64_t FusedAttentionMaxHeadDim = 256;

/// Keys processed per online-softmax tile: scores for one tile live in a
/// stack array and the V rows of the tile are still L1-hot when the
/// accumulator consumes them. Every dispatch tier must tile identically —
/// the online-rescale points depend on tile boundaries, so a different
/// KeyTile would change the accumulation order and break the
/// scalar-vs-SIMD bit-identity contract.
inline constexpr int64_t FusedAttentionKeyTile = 64;

/// The scalar per-row worker behind runFusedAttention — the fallback of
/// resolveFusedAttentionRows and the reference the AVX2 tier is
/// differenced against.
/// Rows index flat over Batches * S query rows.
void fusedAttentionRowsScalar(const AttentionRowArgs &Args, int64_t RowBegin,
                              int64_t RowEnd);

/// Out[b, i, :] = softmax_j(Scale * sum_d Q[b, i, d] * Kt[b, d, j]
///                          + mask) * V[b, j, :]
/// over \p Batches independent heads: Q and V are [Batches, S, Dh]
/// (row-major, contiguous), Kt is [Batches, Dh, S] — the graph's
/// pre-transposed K, exactly as the QK^T MatMul consumes it. Mask, when
/// non-null, is an additive [S, S] bias broadcast over the batch
/// dimension (MaskBatchStride = 0) or per-batch (stride in elements).
/// Causal = true ignores Mask and restricts each query row i to keys
/// j <= i. Parallelizes over query rows; requires Dh <=
/// FusedAttentionMaxHeadDim. \p Level picks the dispatch tier (the AVX2
/// tier vectorizes the score and accumulate inner loops without touching
/// the online-softmax order, so it is bit-identical to the scalar rows).
void runFusedAttention(const float *Q, const float *Kt, const float *V,
                       const float *Mask, int64_t MaskBatchStride,
                       float Scale, bool Causal, float *Out, int64_t Batches,
                       int64_t S, int64_t Dh, EngineCounters *Counters,
                       KernelLevel Level = KernelLevel::Scalar);

/// Row-wise LayerNorm over the last dimension: for each of \p Rows rows of
/// \p H elements, Out = (X - mean) / sqrt(var + Eps) * Gamma + Beta with
/// mean/var the ascending-index arithmetic means (biased variance), Gamma
/// and Beta [H] vectors. Bit-identical to the decomposed graph form.
void runFusedLayerNorm(const float *X, const float *Gamma, const float *Beta,
                       float Eps, float *Out, int64_t Rows, int64_t H,
                       EngineCounters *Counters);

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELSATTENTION_H
