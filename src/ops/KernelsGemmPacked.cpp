//===- ops/KernelsGemmPacked.cpp - Packed register-blocked GEMM -----------------===//

#include "ops/KernelsGemmPacked.h"

#include "support/Error.h"

#include <algorithm>
#include <cstring>

using namespace dnnfusion;

int dnnfusion::clampPackNR(int NR) {
  if (NR >= 32)
    return 32;
  if (NR >= 16)
    return 16;
  if (NR >= 8)
    return 8;
  return 4;
}

int dnnfusion::clampPackMR(int MR) {
  return std::clamp(MR, 1, GemmMaxMR);
}

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

/// The micro kernel for one compile-time panel width: an MR x NR
/// accumulator tile held across the whole K loop, products added in
/// ascending k order per output element.
template <int NR>
void gemmPackedRowsNR(const float *A, int64_t ARowStride, int64_t AColStride,
                      const float *Packed, float *C, int64_t CRowStride,
                      int64_t RowBegin, int64_t RowEnd, int64_t N, int64_t K,
                      int MR, const float *RowBias) {
  int64_t Panels = (N + NR - 1) / NR;
  for (int64_t I = RowBegin; I < RowEnd; I += MR) {
    int Rows = static_cast<int>(std::min<int64_t>(MR, RowEnd - I));
    for (int64_t P = 0; P < Panels; ++P) {
      int64_t JBase = P * NR;
      int64_t JCount = std::min<int64_t>(NR, N - JBase);
      const float *__restrict Bp = Packed + P * K * NR;
      float Acc[GemmMaxMR][NR];
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
                                     int64_t N, int64_t K, int MR, int NR,
                                     const float *RowBias) {
  MR = clampPackMR(MR);
  switch (clampPackNR(NR)) {
  case 4:
    return gemmPackedRowsNR<4>(A, ARowStride, AColStride, Packed, C,
                               CRowStride, RowBegin, RowEnd, N, K, MR,
                               RowBias);
  case 8:
    return gemmPackedRowsNR<8>(A, ARowStride, AColStride, Packed, C,
                               CRowStride, RowBegin, RowEnd, N, K, MR,
                               RowBias);
  case 16:
    return gemmPackedRowsNR<16>(A, ARowStride, AColStride, Packed, C,
                                CRowStride, RowBegin, RowEnd, N, K, MR,
                                RowBias);
  default:
    return gemmPackedRowsNR<32>(A, ARowStride, AColStride, Packed, C,
                                CRowStride, RowBegin, RowEnd, N, K, MR,
                                RowBias);
  }
}

void dnnfusion::gemmPackedRows(const float *A, int64_t ARowStride,
                               int64_t AColStride, const float *Packed,
                               float *C, int64_t CRowStride, int64_t RowBegin,
                               int64_t RowEnd, int64_t N, int64_t K, int MR,
                               int NR, const float *RowBias,
                               KernelLevel Level) {
  NR = clampPackNR(NR);
  if (GemmPackedRowsFn Fn = resolveGemmPackedRows(Level, NR))
    return Fn(A, ARowStride, AColStride, Packed, C, CRowStride, RowBegin,
              RowEnd, N, K, clampPackMR(MR), NR, RowBias);
  gemmPackedRowsScalar(A, ARowStride, AColStride, Packed, C, CRowStride,
                       RowBegin, RowEnd, N, K, MR, NR, RowBias);
}

bool dnnfusion::packedGemmProfitable(int64_t M, int64_t N, int64_t K, int NR,
                                     bool Prepacked) {
  if (N < 4 || K < 2)
    return false;
  // Tail padding: the micro kernel computes whole NR-wide panels, so a
  // narrow N pays for discarded columns. Decline once the padded columns
  // exceed a third of the useful ones (waste/N > 1/3, i.e. 3*PaddedN >
  // 4*N).
  NR = clampPackNR(NR);
  int64_t PaddedN = (N + NR - 1) / NR * NR;
  if (PaddedN * 3 > N * 4)
    return false;
  if (Prepacked)
    return true; // Packing already paid for; the micro kernel never loses.
  // Run-time packing costs one K*N pass; it amortizes over the M rows that
  // reuse the panels.
  return M >= 4 && M * N * K >= 16384;
}
