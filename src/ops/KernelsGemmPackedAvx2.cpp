//===- ops/KernelsGemmPackedAvx2.cpp - AVX2 packed-GEMM micro tile --------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AVX2 tier of the packed-GEMM micro kernel. This translation unit is
// compiled with -mavx2 -ffp-contract=off on x86-64 toolchains and with no
// extra flags elsewhere; the getter at the bottom returns null when
// __AVX2__ is absent so dispatch degrades to scalar without any
// preprocessor use at the call site. Nothing in this file runs before
// dispatch resolution proves the host supports the instructions.
//
// Each product is _mm256_mul_ps then _mm256_add_ps — two rounding steps,
// exactly like the scalar micro tile, and in the same ascending-k order
// per output element. Without -mfma and with -ffp-contract=off the
// compiler cannot fuse the pair, so the tile is bit-identical to
// gemmPackedRowsScalar.
//
// The tile is re-blocked regardless of the caller's MR — register
// blocking spans output elements, never the k axis, so results are
// invariant to the tile shape:
//
//  - Wide panels (NR = 16 or 32): 4 rows x 16 columns, 8 accumulator ymm +
//    2 panel loads + 1 broadcast, comfortably inside the 16 ymm registers.
//  - Narrow panels (NR = 8, the route of every N <= 8 problem): 8 rows x
//    8 columns, 8 accumulator ymm + 1 panel load + 1 broadcast. A
//    weight-stationary W[M,K] x X[K,B] layer at B <= 8 streams eight
//    weight rows per panel load instead of walking one row per add chain.
//
// Row tails run as one narrower block of the same width. Panels are
// zero-padded to NR by packBPanels, which makes every 8-wide load safe;
// only the stores honor the useful-column count.
//
//===----------------------------------------------------------------------===//

#include "ops/KernelRegistry.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace dnnfusion {
namespace {

/// One ROWS x (VECS * 8) accumulator tile against panel columns
/// [JOff, JOff + VECS * 8) of one packed panel. \p Cols is the number of
/// useful output columns in the group (stores clamp to it; computation
/// always covers the full zero-padded lanes, like the scalar tile).
template <int ROWS, int VECS>
inline void microTile(const float *A, int64_t ARowStride, int64_t AColStride,
                      const float *__restrict Bp, int NR, float *C,
                      int64_t CRowStride, int64_t I, int64_t ColBase, int JOff,
                      int64_t K, int64_t Cols, const float *RowBias) {
  __m256 Acc[ROWS][VECS];
  for (int R = 0; R < ROWS; ++R) {
    __m256 Init = _mm256_set1_ps(RowBias ? RowBias[I + R] : 0.0f);
    for (int V = 0; V < VECS; ++V)
      Acc[R][V] = Init;
  }
  const float *ABase = A + I * ARowStride;
  for (int64_t Kk = 0; Kk < K; ++Kk) {
    const float *__restrict Brow = Bp + Kk * NR + JOff;
    __m256 Bv[VECS];
    for (int V = 0; V < VECS; ++V)
      Bv[V] = _mm256_loadu_ps(Brow + V * 8);
    const float *Acol = ABase + Kk * AColStride;
    for (int R = 0; R < ROWS; ++R) {
      __m256 Av = _mm256_set1_ps(Acol[R * ARowStride]);
      for (int V = 0; V < VECS; ++V)
        Acc[R][V] = _mm256_add_ps(Acc[R][V], _mm256_mul_ps(Av, Bv[V]));
    }
  }
  for (int R = 0; R < ROWS; ++R) {
    float *Crow = C + (I + R) * CRowStride + ColBase;
    int64_t Rem = Cols;
    for (int V = 0; V < VECS; ++V) {
      float *Dst = Crow + V * 8;
      if (Rem >= 8) {
        _mm256_storeu_ps(Dst, Acc[R][V]);
        Rem -= 8;
      } else if (Rem > 0) {
        alignas(32) float Tmp[8];
        _mm256_store_ps(Tmp, Acc[R][V]);
        for (int64_t J = 0; J < Rem; ++J)
          Dst[J] = Tmp[J];
        Rem = 0;
      }
    }
  }
}

/// All panels for one block of ROWS output rows starting at row I, in
/// column groups of VECS * 8 (NR is a multiple of the group width).
template <int ROWS, int VECS>
void rowBlockPanels(const float *A, int64_t ARowStride, int64_t AColStride,
                    const float *Packed, float *C, int64_t CRowStride,
                    int64_t I, int64_t N, int64_t K, int NR,
                    const float *RowBias) {
  constexpr int GroupWidth = VECS * 8;
  int64_t Panels = (N + NR - 1) / NR;
  for (int64_t P = 0; P < Panels; ++P) {
    int64_t JBase = P * NR;
    const float *Bp = Packed + P * K * NR;
    for (int JOff = 0; JOff < NR; JOff += GroupWidth) {
      int64_t ColBase = JBase + JOff;
      if (ColBase >= N)
        break; // Whole group is tail padding — nothing to store.
      int64_t Cols = N - ColBase;
      if (Cols > GroupWidth)
        Cols = GroupWidth;
      microTile<ROWS, VECS>(A, ARowStride, AColStride, Bp, NR, C, CRowStride,
                            I, ColBase, JOff, K, Cols, RowBias);
    }
  }
}

/// Rows [I, RowEnd) in blocks of ROWS; the remaining fewer than ROWS rows
/// fall through to the next narrower instantiation, which runs them as
/// one block.
template <int ROWS, int VECS>
void rowBlocks(const float *A, int64_t ARowStride, int64_t AColStride,
               const float *Packed, float *C, int64_t CRowStride, int64_t I,
               int64_t RowEnd, int64_t N, int64_t K, int NR,
               const float *RowBias) {
  for (; I + ROWS <= RowEnd; I += ROWS)
    rowBlockPanels<ROWS, VECS>(A, ARowStride, AColStride, Packed, C,
                               CRowStride, I, N, K, NR, RowBias);
  if constexpr (ROWS > 1)
    if (I < RowEnd)
      rowBlocks<ROWS - 1, VECS>(A, ARowStride, AColStride, Packed, C,
                                CRowStride, I, RowEnd, N, K, NR, RowBias);
}

void gemmPackedRowsAvx2Impl(const float *A, int64_t ARowStride,
                            int64_t AColStride, const float *Packed, float *C,
                            int64_t CRowStride, int64_t RowBegin,
                            int64_t RowEnd, int64_t N, int64_t K, int MR,
                            int NR, const float *RowBias) {
  (void)MR; // Re-blocked per panel width (see file header).
  if (NR == 8)
    rowBlocks<8, 1>(A, ARowStride, AColStride, Packed, C, CRowStride,
                    RowBegin, RowEnd, N, K, NR, RowBias);
  else
    rowBlocks<4, 2>(A, ARowStride, AColStride, Packed, C, CRowStride,
                    RowBegin, RowEnd, N, K, NR, RowBias);
}

} // namespace

GemmPackedRowsFn simd::gemmPackedRowsAvx2() { return &gemmPackedRowsAvx2Impl; }

} // namespace dnnfusion

#else // !defined(__AVX2__)

namespace dnnfusion {

GemmPackedRowsFn simd::gemmPackedRowsAvx2() { return nullptr; }

} // namespace dnnfusion

#endif
