//===- ops/KernelsGemmPackedAvx2.cpp - AVX2 packed-GEMM micro tile --------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AVX2 tier of the GEMM tiles: the packed-GEMM micro kernel and the
// narrow-rows tile. This translation unit is compiled with
// -mavx2 -ffp-contract=off on x86-64 toolchains and with no extra flags
// elsewhere; the getters at the bottom return null when __AVX2__ is
// absent so dispatch degrades to scalar without any preprocessor use at
// the call site. Nothing in this file runs before dispatch resolution
// proves the host supports the instructions.
//
// Each product is _mm256_mul_ps then _mm256_add_ps — two rounding steps,
// exactly like the scalar kernels, and in the same ascending-k order per
// output element. Without -mfma and with -ffp-contract=off the compiler
// cannot fuse the pair, so every tile is bit-identical to the scalar
// micro tile and the naive row walk.
//
// The packed tile blocks rows per panel width, not at the scalar tile's
// 8 — register blocking spans output elements, never the k axis, so
// results are invariant to the tile shape. Two tiles serve the panel
// route, one the narrow-rows route:
//
//  - Wide panels (GemmWideNR = 32, Conv and N > 8): 4 rows x 16 columns,
//    8 accumulator ymm + 2 panel loads + 1 broadcast, comfortably inside
//    the 16 ymm registers.
//  - Narrow panels (GemmNarrowNR = 8, the route of N = 5..8 and of
//    transposed-A N <= 4 problems): 8 rows x 8 columns, 8 accumulator
//    ymm + 1 panel load + 1 broadcast. A weight-stationary
//    W[M,K] x X[K,B] layer streams eight weight rows per panel load
//    instead of walking one row per add chain.
//  - Narrow rows (N <= 4 with contiguous A rows): 8 rows x N columns, one
//    accumulator ymm per column, its lanes the 8 rows. Each step loads
//    8 rows x 8 k of A (sixteen 16-byte loads, each into one 128-bit
//    lane), transposes them in registers (unpack, shuffle) into one 8-row
//    column per k, and adds column * broadcast(B[k, j]) into accumulator
//    j. B is read in place and nothing pads N, so no lane multiplies
//    padding. The tile's work grows with N while the panel tile's stays
//    at 8 columns; from N = 5 it no longer wins reliably (see
//    KernelsGemmPacked.h), so N = 5..8 keep the panel.
//
// Any other panel width is a routing bug, reported before a single store.
// Packed row tails run as one narrower block of the same width. Panels
// are zero-padded to NR by packBPanels, which makes every 8-wide load
// safe; only the stores honor the useful-column count. A narrow-rows tail
// of fewer than 8 rows repeats its last row in the spare lanes, so every
// load stays inside A; those lanes are never stored.
//
//===----------------------------------------------------------------------===//

#include "ops/KernelRegistry.h"

#if defined(__AVX2__)

#include "support/Error.h"

#include <immintrin.h>

#include <algorithm>

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
                            int64_t RowEnd, int64_t N, int64_t K, int NR,
                            const float *RowBias) {
  switch (NR) {
  case 8: // GemmNarrowNR
    return rowBlocks<8, 1>(A, ARowStride, AColStride, Packed, C, CRowStride,
                           RowBegin, RowEnd, N, K, NR, RowBias);
  case 32: // GemmWideNR
    return rowBlocks<4, 2>(A, ARowStride, AColStride, Packed, C, CRowStride,
                           RowBegin, RowEnd, N, K, NR, RowBias);
  default:
    reportFatalErrorf("packed GEMM tile: NR = %d is neither 8 nor 32", NR);
  }
}

/// Loads A(Row[r], Kk + q) for r, q in 0..7 and transposes in registers:
/// on return V[q] holds k = Kk + q of row r in lane r. Each 16-byte load
/// fills one 128-bit lane, rows 0-3 in the low lanes and rows 4-7 in the
/// high ones, so the transpose needs no cross-lane shuffle: per four k,
/// four unpacks pair rows up and four shuffles gather each k's column.
inline void loadTransposed8x8(const float *const Row[8], int64_t Kk,
                              __m256 V[8]) {
  auto Load = [](const float *Lo, const float *Hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(Lo)),
                                _mm_loadu_ps(Hi), 1);
  };
  for (int H = 0; H < 2; ++H) {
    int64_t K0 = Kk + 4 * H;
    __m256 T0 = Load(Row[0] + K0, Row[4] + K0);
    __m256 T1 = Load(Row[1] + K0, Row[5] + K0);
    __m256 T2 = Load(Row[2] + K0, Row[6] + K0);
    __m256 T3 = Load(Row[3] + K0, Row[7] + K0);
    // U0 interleaves rows 0 and 1 at k0, k0 + 1 (rows 4 and 5 in the high
    // lane), U1 the same at k0 + 2, k0 + 3; U2 and U3 rows 2 and 3...
    __m256 U0 = _mm256_unpacklo_ps(T0, T1), U1 = _mm256_unpackhi_ps(T0, T1);
    __m256 U2 = _mm256_unpacklo_ps(T2, T3), U3 = _mm256_unpackhi_ps(T2, T3);
    // ...so one shuffle per k joins rows 0-3 and 4-7 into its column.
    V[4 * H + 0] = _mm256_shuffle_ps(U0, U2, _MM_SHUFFLE(1, 0, 1, 0));
    V[4 * H + 1] = _mm256_shuffle_ps(U0, U2, _MM_SHUFFLE(3, 2, 3, 2));
    V[4 * H + 2] = _mm256_shuffle_ps(U1, U3, _MM_SHUFFLE(1, 0, 1, 0));
    V[4 * H + 3] = _mm256_shuffle_ps(U1, U3, _MM_SHUFFLE(3, 2, 3, 2));
  }
}

/// Adds column * B[k, j] into accumulator j for the NC output columns.
template <int NC>
inline void accumulateColumn(__m256 Acc[NC], __m256 Col, const float *Bk,
                             int64_t BNStride) {
  for (int J = 0; J < NC; ++J) {
    __m256 Bv = _mm256_set1_ps(Bk[J * BNStride]);
    Acc[J] = _mm256_add_ps(Acc[J], _mm256_mul_ps(Col, Bv));
  }
}

template <int NC>
void gemmNarrowRowsNC(const float *A, const float *B, int64_t BKStride,
                      int64_t BNStride, float *C, int64_t RowBegin,
                      int64_t RowEnd, int64_t K) {
  for (int64_t I = RowBegin; I < RowEnd; I += 8) {
    int Rows = static_cast<int>(std::min<int64_t>(8, RowEnd - I));
    const float *Row[8];
    for (int R = 0; R < 8; ++R)
      Row[R] = A + (I + std::min(R, Rows - 1)) * K;
    __m256 Acc[NC];
    for (int J = 0; J < NC; ++J)
      Acc[J] = _mm256_setzero_ps();
    int64_t Kk = 0;
    for (; Kk + 8 <= K; Kk += 8) {
      __m256 V[8];
      loadTransposed8x8(Row, Kk, V);
      for (int Q = 0; Q < 8; ++Q)
        accumulateColumn<NC>(Acc, V[Q], B + (Kk + Q) * BKStride, BNStride);
    }
    for (; Kk < K; ++Kk) {
      __m256 Col = _mm256_setr_ps(Row[0][Kk], Row[1][Kk], Row[2][Kk],
                                  Row[3][Kk], Row[4][Kk], Row[5][Kk],
                                  Row[6][Kk], Row[7][Kk]);
      accumulateColumn<NC>(Acc, Col, B + Kk * BKStride, BNStride);
    }
    alignas(32) float Lanes[NC][8];
    for (int J = 0; J < NC; ++J)
      _mm256_store_ps(Lanes[J], Acc[J]);
    for (int R = 0; R < Rows; ++R)
      for (int J = 0; J < NC; ++J)
        C[(I + R) * NC + J] = Lanes[J][R];
  }
}

void gemmNarrowRowsAvx2Impl(const float *A, const float *B, int64_t BKStride,
                            int64_t BNStride, float *C, int64_t RowBegin,
                            int64_t RowEnd, int64_t N, int64_t K) {
  switch (N) {
  case 1:
    return gemmNarrowRowsNC<1>(A, B, BKStride, BNStride, C, RowBegin, RowEnd,
                               K);
  case 2:
    return gemmNarrowRowsNC<2>(A, B, BKStride, BNStride, C, RowBegin, RowEnd,
                               K);
  case 3:
    return gemmNarrowRowsNC<3>(A, B, BKStride, BNStride, C, RowBegin, RowEnd,
                               K);
  case 4:
    return gemmNarrowRowsNC<4>(A, B, BKStride, BNStride, C, RowBegin, RowEnd,
                               K);
  default:
    reportFatalErrorf("narrow-rows tile: N = %lld outside 1..4",
                      static_cast<long long>(N));
  }
}

} // namespace

GemmPackedRowsFn simd::gemmPackedRowsAvx2() { return &gemmPackedRowsAvx2Impl; }
GemmNarrowRowsFn simd::gemmNarrowRowsAvx2() { return &gemmNarrowRowsAvx2Impl; }

} // namespace dnnfusion

#else // !defined(__AVX2__)

namespace dnnfusion {

GemmPackedRowsFn simd::gemmPackedRowsAvx2() { return nullptr; }
GemmNarrowRowsFn simd::gemmNarrowRowsAvx2() { return nullptr; }

} // namespace dnnfusion

#endif
