//===- ops/KernelsGemmPacked.cpp - Packed register-blocked GEMM -----------------===//

#include "ops/KernelsGemmPacked.h"

#include "ops/Kernels.h"
#include "support/Error.h"

#include <algorithm>
#include <cstring>

using namespace dnnfusion;

int64_t dnnfusion::packedPanelElems(int64_t K, int64_t N, int NR) {
  int64_t Panels = (N + NR - 1) / NR;
  return Panels * K * NR;
}

void dnnfusion::packBPanels(const float *B, int64_t KStride, int64_t NStride,
                            int64_t K, int64_t N, int NR, float *Packed) {
  int64_t Panels = (N + NR - 1) / NR;
  for (int64_t P = 0; P < Panels; ++P) {
    int64_t NBase = P * NR;
    int64_t NCount = std::min<int64_t>(NR, N - NBase);
    float *Dst = Packed + P * K * NR;
    if (NStride == 1 && NCount == NR) {
      // Full panel over a contiguous row: straight NR-wide copies.
      for (int64_t Kk = 0; Kk < K; ++Kk)
        std::memcpy(Dst + Kk * NR, B + Kk * KStride + NBase,
                    static_cast<size_t>(NR) * sizeof(float));
      continue;
    }
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      const float *Src = B + Kk * KStride + NBase * NStride;
      float *Row = Dst + Kk * NR;
      int64_t J = 0;
      for (; J < NCount; ++J)
        Row[J] = Src[J * NStride];
      for (; J < NR; ++J)
        Row[J] = 0.0f; // Tail padding: computed then discarded on store.
    }
  }
}

namespace {

/// The micro kernel for one compile-time panel width: a GemmTileRows x NR
/// accumulator tile held across the whole K loop, products added in
/// ascending k order per output element.
template <int NR>
void gemmPackedRowsNR(const float *A, int64_t ARowStride, int64_t AColStride,
                      const float *Packed, float *C, int64_t CRowStride,
                      int64_t RowBegin, int64_t RowEnd, int64_t N, int64_t K,
                      const float *RowBias) {
  int64_t Panels = (N + NR - 1) / NR;
  for (int64_t I = RowBegin; I < RowEnd; I += GemmTileRows) {
    int Rows = static_cast<int>(std::min<int64_t>(GemmTileRows, RowEnd - I));
    for (int64_t P = 0; P < Panels; ++P) {
      int64_t JBase = P * NR;
      int64_t JCount = std::min<int64_t>(NR, N - JBase);
      const float *__restrict Bp = Packed + P * K * NR;
      float Acc[GemmTileRows][NR];
      for (int R = 0; R < Rows; ++R) {
        float Init = RowBias ? RowBias[I + R] : 0.0f;
        for (int J = 0; J < NR; ++J)
          Acc[R][J] = Init;
      }
      for (int64_t Kk = 0; Kk < K; ++Kk) {
        const float *__restrict Brow = Bp + Kk * NR;
        const float *Acol = A + I * ARowStride + Kk * AColStride;
        for (int R = 0; R < Rows; ++R) {
          float Av = Acol[R * ARowStride];
          for (int J = 0; J < NR; ++J)
            Acc[R][J] += Av * Brow[J];
        }
      }
      for (int R = 0; R < Rows; ++R) {
        float *Crow = C + (I + R) * CRowStride + JBase;
        for (int64_t J = 0; J < JCount; ++J)
          Crow[J] = Acc[R][J];
      }
    }
  }
}

} // namespace

void dnnfusion::gemmPackedRowsScalar(const float *A, int64_t ARowStride,
                                     int64_t AColStride, const float *Packed,
                                     float *C, int64_t CRowStride,
                                     int64_t RowBegin, int64_t RowEnd,
                                     int64_t N, int64_t K, int NR,
                                     const float *RowBias) {
  switch (NR) {
  case GemmNarrowNR:
    return gemmPackedRowsNR<GemmNarrowNR>(A, ARowStride, AColStride, Packed,
                                          C, CRowStride, RowBegin, RowEnd, N,
                                          K, RowBias);
  case GemmWideNR:
    return gemmPackedRowsNR<GemmWideNR>(A, ARowStride, AColStride, Packed, C,
                                        CRowStride, RowBegin, RowEnd, N, K,
                                        RowBias);
  default:
    reportFatalErrorf("packed GEMM tile: NR = %d is neither %d nor %d", NR,
                      GemmNarrowNR, GemmWideNR);
  }
}

namespace {

/// The scalar narrow-rows tile for NC output columns: 8 row accumulators
/// per column, B read in place, products added in ascending k.
template <int NC>
void gemmNarrowRowsScalarNC(const float *A, const float *B, int64_t BKStride,
                            int64_t BNStride, float *C, int64_t RowBegin,
                            int64_t RowEnd, int64_t K) {
  for (int64_t I = RowBegin; I < RowEnd; I += 8) {
    int Rows = static_cast<int>(std::min<int64_t>(8, RowEnd - I));
    float Acc[8][NC] = {};
    const float *Ablk = A + I * K;
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      float Bv[NC];
      for (int J = 0; J < NC; ++J)
        Bv[J] = B[Kk * BKStride + J * BNStride];
      for (int R = 0; R < Rows; ++R) {
        float Av = Ablk[R * K + Kk];
        for (int J = 0; J < NC; ++J)
          Acc[R][J] += Av * Bv[J];
      }
    }
    for (int R = 0; R < Rows; ++R)
      for (int J = 0; J < NC; ++J)
        C[(I + R) * NC + J] = Acc[R][J];
  }
}

} // namespace

void dnnfusion::gemmNarrowRowsScalar(const float *A, const float *B,
                                     int64_t BKStride, int64_t BNStride,
                                     float *C, int64_t RowBegin,
                                     int64_t RowEnd, int64_t N, int64_t K) {
  switch (N) {
  case 1:
    return gemmNarrowRowsScalarNC<1>(A, B, BKStride, BNStride, C, RowBegin,
                                     RowEnd, K);
  case 2:
    return gemmNarrowRowsScalarNC<2>(A, B, BKStride, BNStride, C, RowBegin,
                                     RowEnd, K);
  case 3:
    return gemmNarrowRowsScalarNC<3>(A, B, BKStride, BNStride, C, RowBegin,
                                     RowEnd, K);
  case 4:
    return gemmNarrowRowsScalarNC<4>(A, B, BKStride, BNStride, C, RowBegin,
                                     RowEnd, K);
  default:
    reportFatalErrorf("narrow-rows tile: N = %lld outside 1..%d",
                      static_cast<long long>(N), GemmNarrowRowsMaxN);
  }
}

void dnnfusion::gemmPackedRows(const float *A, int64_t ARowStride,
                               int64_t AColStride, const float *Packed,
                               float *C, int64_t CRowStride, int64_t RowBegin,
                               int64_t RowEnd, int64_t N, int64_t K, int NR,
                               const float *RowBias, KernelLevel Level) {
  if (GemmPackedRowsFn Fn = resolveGemmPackedRows(Level))
    return Fn(A, ARowStride, AColStride, Packed, C, CRowStride, RowBegin,
              RowEnd, N, K, NR, RowBias);
  gemmPackedRowsScalar(A, ARowStride, AColStride, Packed, C, CRowStride,
                       RowBegin, RowEnd, N, K, NR, RowBias);
}

GemmRoute dnnfusion::gemmRoute(const KernelConfig &Config, int64_t M,
                               int64_t N, int64_t K, bool TransA,
                               bool Prepacked) {
  if (!Config.UsePackedGemm || K < 2 || N < 1)
    return {};
  if (N <= GemmNarrowNR) {
    if (M < 4)
      return {};
    if (N <= GemmNarrowRowsMaxN && !TransA)
      return {GemmRoute::NarrowRows, 0};
    return {GemmRoute::Panel, GemmNarrowNR};
  }
  // Tail padding: the micro kernel computes whole panels, so the last
  // panel's unused columns are paid for. Decline once the padded columns
  // exceed a third of the useful ones (3*PaddedN > 4*N).
  int64_t PaddedN = (N + GemmWideNR - 1) / GemmWideNR * GemmWideNR;
  if (PaddedN * 3 > N * 4)
    return {};
  if (Prepacked)
    return {GemmRoute::Panel, GemmWideNR}; // Packing already paid for.
  // Run-time packing costs one K*N pass; it amortizes over the M rows that
  // reuse the panels.
  if (M >= 4 && M * N * K >= 16384)
    return {GemmRoute::Panel, GemmWideNR};
  return {};
}
