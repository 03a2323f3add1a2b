//===- ops/KernelsMatMul.cpp - MatMul/Gemm kernels ------------------------------===//

#include "ops/IndexUtils.h"
#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstring>

using namespace dnnfusion;

namespace {

/// Plain i-k-j matmul of one [M,K]x[K,N] problem, rows [RowBegin,RowEnd).
void matmulRows(const float *A, const float *B, float *C, int64_t RowBegin,
                int64_t RowEnd, int64_t N, int64_t K) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    float *Crow = C + I * N;
    std::memset(Crow, 0, static_cast<size_t>(N) * sizeof(float));
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      float Av = A[I * K + Kk];
      const float *Brow = B + Kk * N;
      for (int64_t J = 0; J < N; ++J)
        Crow[J] += Av * Brow[J];
    }
  }
}

/// Batch geometry of one MatMul call.
struct MatMulDims {
  int64_t M, N, K, Batches, BSlices;
};

MatMulDims matmulDims(const Shape &AShape, const Shape &BShape,
                      const Shape &OutShape) {
  int Ra = AShape.rank(), Rb = BShape.rank();
  MatMulDims D;
  D.M = AShape.dim(Ra - 2);
  D.K = AShape.dim(Ra - 1);
  D.N = BShape.dim(Rb - 1);
  Shape BatchShape(std::vector<int64_t>(OutShape.dims().begin(),
                                        OutShape.dims().end() - 2));
  D.Batches = BatchShape.numElements();
  Shape BatchB(std::vector<int64_t>(BShape.dims().begin(),
                                    BShape.dims().end() - 2));
  D.BSlices = BatchB.numElements();
  return D;
}

void runMatMul(const std::vector<const Tensor *> &Inputs, Tensor &Out,
               const KernelConfig &Config, const KernelRuntime &Rt) {
  const Tensor &A = *Inputs[0], &B = *Inputs[1];
  MatMulDims D = matmulDims(A.shape(), B.shape(), Out.shape());
  int64_t M = D.M, K = D.K, N = D.N, Batches = D.Batches;
  Shape BatchShape(std::vector<int64_t>(Out.shape().dims().begin(),
                                        Out.shape().dims().end() - 2));

  Shape BatchA(std::vector<int64_t>(A.shape().dims().begin(),
                                    A.shape().dims().end() - 2));
  Shape BatchB(std::vector<int64_t>(B.shape().dims().begin(),
                                    B.shape().dims().end() - 2));
  std::vector<int64_t> StridesA = broadcastStrides(BatchA, BatchShape);
  std::vector<int64_t> StridesB = broadcastStrides(BatchB, BatchShape);

  // Precompute per-batch base offsets (and B slice ids), then parallelize
  // across all rows.
  std::vector<int64_t> BaseA(static_cast<size_t>(Batches)),
      SliceB(static_cast<size_t>(Batches));
  std::vector<int64_t> Coords;
  for (int64_t Bi = 0; Bi < Batches; ++Bi) {
    BatchShape.unflatten(Bi, Coords);
    int64_t Oa = 0, Ob = 0;
    for (size_t Dd = 0; Dd < Coords.size(); ++Dd) {
      Oa += Coords[Dd] * StridesA[Dd];
      Ob += Coords[Dd] * StridesB[Dd];
    }
    BaseA[static_cast<size_t>(Bi)] = Oa * M * K;
    SliceB[static_cast<size_t>(Bi)] = Ob;
  }

  // Packed path: B repacked (or prepacked) into NR panels shared by every
  // row of every batch that maps onto the same slice.
  int64_t EffM = D.BSlices > 0 ? (Batches * M) / D.BSlices : M;
  if (int NR = packedGemmPanelWidth(Config, EffM, N, K,
                                    Rt.Prepacked != nullptr)) {
    int MR = clampPackMR(Config.PackMR);
    bool Prepacked =
        Rt.Prepacked && Rt.Prepacked->matches(K, N, NR, D.BSlices);
    KernelLevel Level = effectiveKernelLevel(Config);
    if (Rt.Counters) {
      ++Rt.Counters->PackedKernelCalls;
      ++(Prepacked ? Rt.Counters->PrepackHits : Rt.Counters->PrepackMisses);
    }
    countKernelDispatch(Rt.Counters, Level);
    int64_t SliceElems = packedPanelElems(K, N, NR);
    PackBuffer Buf;
    const float *Packed;
    if (Prepacked) {
      Packed = Rt.Prepacked->Data.data();
    } else {
      float *Dst = Buf.acquire(Rt.PackScratch, Rt.PackScratchElems,
                               D.BSlices * SliceElems);
      parallelFor(D.BSlices, [&](int64_t Begin, int64_t End) {
        for (int64_t S = Begin; S < End; ++S)
          packBPanels(B.data() + S * K * N, N, 1, K, N, NR,
                      Dst + S * SliceElems);
      });
      Packed = Dst;
    }
    parallelFor(Batches * M, [&](int64_t Begin, int64_t End) {
      for (int64_t Row = Begin; Row < End;) {
        int64_t Bi = Row / M;
        int64_t RowInBatch = Row % M;
        int64_t RowsHere = std::min(M - RowInBatch, End - Row);
        gemmPackedRows(A.data() + BaseA[static_cast<size_t>(Bi)], K, 1,
                       Packed + SliceB[static_cast<size_t>(Bi)] * SliceElems,
                       Out.data() + Bi * M * N, N, RowInBatch,
                       RowInBatch + RowsHere, N, K, MR, NR, nullptr, Level);
        Row += RowsHere;
      }
    });
    return;
  }

  if (Rt.Counters)
    ++Rt.Counters->DirectKernelCalls;
  parallelFor(Batches * M, [&](int64_t Begin, int64_t End) {
    for (int64_t Row = Begin; Row < End;) {
      int64_t Bi = Row / M;
      int64_t RowInBatch = Row % M;
      int64_t RowsHere = std::min(M - RowInBatch, End - Row);
      matmulRows(A.data() + BaseA[static_cast<size_t>(Bi)],
                 B.data() + SliceB[static_cast<size_t>(Bi)] * K * N,
                 Out.data() + Bi * M * N, RowInBatch, RowInBatch + RowsHere, N,
                 K);
      Row += RowsHere;
    }
  });
}

/// Adds one broadcast bias row into \p Crow: bias element (I, J) lives at
/// Bias[I * S0 + J * S1] with S0/S1 the broadcast strides over the [M, N]
/// output. A single post-accumulation add per element, exactly like the
/// old whole-output epilogue — now fused into the parallel row loop.
void addBiasRow(float *Crow, const float *Bias, int64_t I, int64_t N,
                int64_t S0, int64_t S1) {
  const float *Brow = Bias + I * S0;
  if (S1 == 1) {
    for (int64_t J = 0; J < N; ++J)
      Crow[J] += Brow[J];
  } else if (S1 == 0) {
    float V = Brow[0];
    for (int64_t J = 0; J < N; ++J)
      Crow[J] += V;
  } else {
    for (int64_t J = 0; J < N; ++J)
      Crow[J] += Brow[J * S1];
  }
}

/// Naive Gemm rows with the transA/transB variant resolved at compile
/// time — no per-element indexing lambdas.
template <bool TA, bool TB>
void gemmRowsNaive(const float *A, const float *B, float *C, int64_t RowBegin,
                   int64_t RowEnd, int64_t M, int64_t N, int64_t K) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    float *Crow = C + I * N;
    std::memset(Crow, 0, static_cast<size_t>(N) * sizeof(float));
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      float Av = TA ? A[Kk * M + I] : A[I * K + Kk];
      if (TB) {
        const float *Bcol = B + Kk;
        for (int64_t J = 0; J < N; ++J)
          Crow[J] += Av * Bcol[J * K];
      } else {
        const float *Brow = B + Kk * N;
        for (int64_t J = 0; J < N; ++J)
          Crow[J] += Av * Brow[J];
      }
    }
  }
}

void runGemm(const AttrMap &Attrs, const std::vector<const Tensor *> &Inputs,
             Tensor &Out, const KernelConfig &Config,
             const KernelRuntime &Rt) {
  const Tensor &A = *Inputs[0], &B = *Inputs[1];
  bool TA = Attrs.getInt("transA", 0) != 0;
  bool TB = Attrs.getInt("transB", 0) != 0;
  int64_t M = Out.shape().dim(0), N = Out.shape().dim(1);
  int64_t K = TA ? A.shape().dim(0) : A.shape().dim(1);

  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int64_t BiasS0 = 0, BiasS1 = 0;
  if (Bias) {
    std::vector<int64_t> S =
        broadcastStrides(Inputs[2]->shape(), Out.shape());
    BiasS0 = S[0];
    BiasS1 = S[1];
  }

  if (int NR = packedGemmPanelWidth(Config, M, N, K, Rt.Prepacked != nullptr)) {
    int MR = clampPackMR(Config.PackMR);
    bool Prepacked = Rt.Prepacked && Rt.Prepacked->matches(K, N, NR, 1);
    KernelLevel Level = effectiveKernelLevel(Config);
    if (Rt.Counters) {
      ++Rt.Counters->PackedKernelCalls;
      ++(Prepacked ? Rt.Counters->PrepackHits : Rt.Counters->PrepackMisses);
    }
    countKernelDispatch(Rt.Counters, Level);
    PackBuffer Buf;
    const float *Packed;
    if (Prepacked) {
      Packed = Rt.Prepacked->Data.data();
    } else {
      float *Dst = Buf.acquire(Rt.PackScratch, Rt.PackScratchElems,
                               packedPanelElems(K, N, NR));
      // B element (k, n): B[k*N + n] plain, B[n*K + k] transposed.
      packBPanels(B.data(), TB ? 1 : N, TB ? K : 1, K, N, NR, Dst);
      Packed = Dst;
    }
    int64_t ARow = TA ? 1 : K, ACol = TA ? M : 1;
    parallelFor(M, [&](int64_t Begin, int64_t End) {
      gemmPackedRows(A.data(), ARow, ACol, Packed, Out.data(), N, Begin, End,
                     N, K, MR, NR, nullptr, Level);
      if (Bias)
        for (int64_t I = Begin; I < End; ++I)
          addBiasRow(Out.data() + I * N, Bias, I, N, BiasS0, BiasS1);
    });
    return;
  }

  if (Rt.Counters)
    ++Rt.Counters->DirectKernelCalls;
  auto RunRows = [&](int64_t Begin, int64_t End) {
    if (TA) {
      if (TB)
        gemmRowsNaive<true, true>(A.data(), B.data(), Out.data(), Begin, End,
                                  M, N, K);
      else
        gemmRowsNaive<true, false>(A.data(), B.data(), Out.data(), Begin, End,
                                   M, N, K);
    } else {
      if (TB)
        gemmRowsNaive<false, true>(A.data(), B.data(), Out.data(), Begin, End,
                                   M, N, K);
      else
        gemmRowsNaive<false, false>(A.data(), B.data(), Out.data(), Begin,
                                    End, M, N, K);
    }
    if (Bias)
      for (int64_t I = Begin; I < End; ++I)
        addBiasRow(Out.data() + I * N, Bias, I, N, BiasS0, BiasS1);
  };
  parallelFor(M, RunRows);
}

} // namespace

int64_t dnnfusion::detail::matmulPackScratchElems(
    OpKind Kind, const AttrMap &Attrs, const Shape &AShape,
    const Shape &BShape, const Shape &OutShape, const KernelConfig &Config) {
  if (Kind == OpKind::MatMul) {
    MatMulDims D = matmulDims(AShape, BShape, OutShape);
    int64_t EffM = D.BSlices > 0 ? (D.Batches * D.M) / D.BSlices : D.M;
    int NR = packedGemmPanelWidth(Config, EffM, D.N, D.K, /*Prepacked=*/false);
    return NR ? D.BSlices * packedPanelElems(D.K, D.N, NR) : 0;
  }
  DNNF_CHECK(Kind == OpKind::Gemm, "unexpected kind in matmulPackScratchElems");
  bool TA = Attrs.getInt("transA", 0) != 0;
  int64_t M = OutShape.dim(0), N = OutShape.dim(1);
  int64_t K = TA ? AShape.dim(0) : AShape.dim(1);
  int NR = packedGemmPanelWidth(Config, M, N, K, /*Prepacked=*/false);
  return NR ? packedPanelElems(K, N, NR) : 0;
}

void dnnfusion::detail::runMatMulKernel(
    OpKind Kind, const AttrMap &Attrs,
    const std::vector<const Tensor *> &Inputs, Tensor &Out,
    const KernelConfig &Config, const KernelRuntime &Rt) {
  if (Kind == OpKind::MatMul)
    return runMatMul(Inputs, Out, Config, Rt);
  DNNF_CHECK(Kind == OpKind::Gemm, "unexpected kind in runMatMulKernel");
  runGemm(Attrs, Inputs, Out, Config, Rt);
}
