//===- ops/KernelsGemmPacked.h - Packed register-blocked GEMM -----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed GEMM engine behind the Many-to-Many hot path: the B operand
/// is repacked into NR-wide column panels (contiguous K-major streams) and
/// consumed by an i-k-j register-blocked micro kernel that keeps an
/// MR x NR accumulator tile live across the whole K loop. The panel layout
/// cuts B's main-memory traffic by ~MR x versus the naive row-walk kernels
/// and lets the inner j loop vectorize over a compile-time panel width.
///
/// One route decision (packedGemmPanelWidth) says whether a MatMul/Gemm
/// call runs here and at which panel width. Wide problems (N > 8) pack at
/// the configured PackNR. Narrow ones (N <= 8: a weight-stationary
/// W[M,K] x X[K,B] layer at a serving batch B <= 8) pack their small
/// activation operand into a single 8-wide panel, which the AVX2 tier
/// runs on an 8-row x 8-column tile.
///
/// Bit-identity contract: for every output element the micro kernel
/// accumulates products in strictly ascending k order, exactly like the
/// naive i-k-j kernels in KernelsMatMul.cpp — register blocking spans
/// *different* output elements (i and j), never the reduction axis — so a
/// packed result is bit-identical to the naive result. RowBias reproduces
/// the direct convolution's bias-first accumulation for the im2col path.
///
/// Constant weights are packed once at model-compile time (the prepack
/// store on CompiledModel, rebuilt on loadModel); activation operands pack
/// at run time into per-lane scratch.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELSGEMMPACKED_H
#define DNNFUSION_OPS_KERNELSGEMMPACKED_H

#include "ops/KernelRegistry.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnnfusion {

/// Hard micro-kernel bounds (accumulator tile lives in registers / L1).
inline constexpr int GemmMaxMR = 8;
inline constexpr int GemmMaxNR = 32;

/// Clamps a configured panel width to a supported value (4, 8, 16, 32).
int clampPackNR(int NR);
/// Clamps a configured row-block height to [1, GemmMaxMR].
int clampPackMR(int MR);

/// Elements one packed [K, N] operand occupies: ceil(N / NR) panels of
/// K * NR floats each (the tail panel is zero-padded to full width).
int64_t packedPanelElems(int64_t K, int64_t N, int NR);

/// Packs a logical [K, N] operand into NR-wide column panels. Element
/// (k, n) is read from B[k * KStride + n * NStride], so transposed layouts
/// pack by swapping the strides — the packed form is always K-major.
void packBPanels(const float *B, int64_t KStride, int64_t NStride, int64_t K,
                 int64_t N, int NR, float *Packed);

/// One operand packed by packBPanels, optionally batched: slice s (of a
/// batched MatMul B) starts at Data[s * packedPanelElems(K, N, NR)].
struct PackedOperand {
  std::vector<float> Data;
  int64_t K = 0;
  int64_t N = 0;
  int NR = 8;
  int64_t Slices = 1;

  int64_t sliceElems() const { return packedPanelElems(K, N, NR); }
  const float *slice(int64_t S) const { return Data.data() + S * sliceElems(); }
  /// True when this prepack matches the problem a kernel is about to run.
  bool matches(int64_t Kk, int64_t Nn, int NRr, int64_t SliceCount) const {
    return K == Kk && N == Nn && NR == NRr && Slices == SliceCount &&
           Data.size() ==
               static_cast<size_t>(sliceElems() * Slices);
  }
};

/// Computes C rows [RowBegin, RowEnd) of a [*, N] output against a packed
/// [K, N] operand. A element (i, k) is read from
/// A[i * ARowStride + k * AColStride]; C row i starts at C + i * CRowStride
/// and receives exactly N stores. Accumulators initialize to RowBias[i]
/// when RowBias is non-null (direct-conv bias-first order) and to 0.0f
/// otherwise, then accumulate in ascending k order.
///
/// \p Level selects the dispatch tier (resolveGemmPackedRows); the scalar
/// micro tile runs whenever no AVX2 tile resolves (Level Scalar,
/// unsupported host, NR=4 panels). Scalar and Avx2 results are
/// bit-identical.
void gemmPackedRows(const float *A, int64_t ARowStride, int64_t AColStride,
                    const float *Packed, float *C, int64_t CRowStride,
                    int64_t RowBegin, int64_t RowEnd, int64_t N, int64_t K,
                    int MR, int NR, const float *RowBias,
                    KernelLevel Level = KernelLevel::Scalar);

/// The scalar micro tile behind gemmPackedRows — the fallback of
/// resolveGemmPackedRows and the reference the AVX2 tile is differenced
/// against.
void gemmPackedRowsScalar(const float *A, int64_t ARowStride,
                          int64_t AColStride, const float *Packed, float *C,
                          int64_t CRowStride, int64_t RowBegin, int64_t RowEnd,
                          int64_t N, int64_t K, int MR, int NR,
                          const float *RowBias);

/// Run-time packing buffer: an externally provided scratch span when it
/// is large enough, a heap allocation otherwise (direct kernel calls
/// outside a compiled model carry no scratch). One acquisition policy for
/// every kernel that packs at run time.
struct PackBuffer {
  std::vector<float> Heap;

  float *acquire(float *Scratch, int64_t ScratchElems, int64_t Elems) {
    if (Scratch && ScratchElems >= Elems)
      return Scratch;
    Heap.resize(static_cast<size_t>(Elems));
    return Heap.data();
  }
};

/// Panel width of the narrow-N route: every problem with N <= 8 output
/// columns packs into one panel of this width, whatever PackNR says.
inline constexpr int GemmNarrowNR = 8;

/// The route of one [M, K] x [K, N] MatMul/Gemm problem: the panel width
/// the packed kernel runs it at, or 0 when the naive row walk runs
/// instead. runMatMul/runGemm execute this decision, matmulPackScratchElems
/// sizes the per-lane pack scratch from it and buildPrepack prepacks
/// constant B operands by it, so the three cannot disagree. \p M counts
/// the rows that reuse one packed B (for a batched MatMul, every batch's
/// rows over one B slice); \p Prepacked says B comes from the prepack
/// store, so no run-time packing pass needs amortizing.
///
///  - Naive when Config.UsePackedGemm is off or K < 2.
///  - N <= 8: GemmNarrowNR when M >= 4, else naive, prepacked or not.
///    Padding the lone panel to 8 columns costs SIMD lanes, not memory
///    traffic, and the 8-row tile replaces the naive walk's one dependent
///    add chain per row with eight independent accumulators
///    (BM_GemmNarrow in bench/micro_kernels.cpp measures the trade).
///  - N > 8: Config.PackNR (clamped). Naive when the tail-padded columns
///    would exceed a third of the useful ones (waste/N > 1/3), and — unless
///    B is prepacked — when M < 4 or M * N * K < 16384, too small to repay
///    the K * N packing pass.
int packedGemmPanelWidth(const KernelConfig &Config, int64_t M, int64_t N,
                         int64_t K, bool Prepacked);

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELSGEMMPACKED_H
