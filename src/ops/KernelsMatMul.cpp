//===- ops/KernelsMatMul.cpp - MatMul/Gemm kernels ------------------------------===//
//
// MatMul and Gemm run through one runner over one GemmDims
// (KernelsGemmPacked.h): batches of [M, K] x [K, N] products with strided
// A and B, plus Gemm's broadcast bias. GemmDims::route picks the panel
// route (B packed at run time or served prepacked), the narrow-rows tile,
// or the naive row walk; all three add each output's products in
// ascending k, so their results are bit-identical.
//
//===----------------------------------------------------------------------===//

#include "ops/IndexUtils.h"
#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace dnnfusion;

namespace {

/// The naive row walk: C rows [RowBegin, RowEnd) of one [M, K] x [K, N]
/// problem, i-k-j. A element (i, k) is A[i * ARow + k * ACol] and B
/// element (k, n) is B[k * BK + n * BN]; StridedB = false reads B rows
/// with unit stride (BN == 1).
template <bool StridedB>
void gemmRowsNaive(const float *A, int64_t ARow, int64_t ACol, const float *B,
                   int64_t BK, int64_t BN, float *C, int64_t RowBegin,
                   int64_t RowEnd, int64_t N, int64_t K) {
  for (int64_t I = RowBegin; I < RowEnd; ++I) {
    float *Crow = C + I * N;
    std::fill_n(Crow, N, 0.0f);
    for (int64_t Kk = 0; Kk < K; ++Kk) {
      float Av = A[I * ARow + Kk * ACol];
      const float *Bk = B + Kk * BK;
      for (int64_t J = 0; J < N; ++J)
        Crow[J] += Av * Bk[StridedB ? J * BN : J];
    }
  }
}

/// Adds one broadcast bias row into \p Crow: bias element (I, J) lives at
/// Bias[I * S0 + J * S1] with S0/S1 the broadcast strides over the [M, N]
/// output. One add per element once the row's products are summed (the
/// order of a MatMul followed by an Add), inside the row slice that
/// computed the row.
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

void runGemmDims(const GemmDims &D, const std::vector<const Tensor *> &Inputs,
                 Tensor &Out, const KernelConfig &Config,
                 const KernelRuntime &Rt) {
  const Tensor &A = *Inputs[0], &B = *Inputs[1];
  const int64_t M = D.M, N = D.N, K = D.K;

  // Per-batch A offsets and B slice ids over MatMul's broadcast leading
  // dims; a Gemm (rank 2) is one batch at offset 0.
  std::vector<int64_t> BaseA(static_cast<size_t>(D.Batches), 0),
      SliceB(static_cast<size_t>(D.Batches), 0);
  if (Out.shape().rank() > 2) {
    auto Leading = [](const Shape &S) {
      return Shape(std::vector<int64_t>(S.dims().begin(), S.dims().end() - 2));
    };
    Shape BatchShape = Leading(Out.shape());
    std::vector<int64_t> StridesA =
        broadcastStrides(Leading(A.shape()), BatchShape);
    std::vector<int64_t> StridesB =
        broadcastStrides(Leading(B.shape()), BatchShape);
    std::vector<int64_t> Coords;
    for (int64_t Bi = 0; Bi < D.Batches; ++Bi) {
      BatchShape.unflatten(Bi, Coords);
      int64_t Oa = 0, Ob = 0;
      for (size_t Dd = 0; Dd < Coords.size(); ++Dd) {
        Oa += Coords[Dd] * StridesA[Dd];
        Ob += Coords[Dd] * StridesB[Dd];
      }
      BaseA[static_cast<size_t>(Bi)] = Oa * M * K;
      SliceB[static_cast<size_t>(Bi)] = Ob;
    }
  }

  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int64_t BiasS0 = 0, BiasS1 = 0;
  if (Bias) {
    std::vector<int64_t> S =
        broadcastStrides(Inputs[2]->shape(), Out.shape());
    BiasS0 = S[0];
    BiasS1 = S[1];
  }

  const float *Ad = A.data(), *Bd = B.data();
  float *Cd = Out.data();
  // Rows [Begin, End) of the flat Batches * M row space, one Body(A batch,
  // B slice id, C batch, first row, end row) call per batch they touch,
  // each followed by the bias of the rows it computed.
  auto BatchRows = [&](int64_t Begin, int64_t End, auto &&Body) {
    for (int64_t Row = Begin; Row < End;) {
      int64_t Bi = Row / M, I0 = Row % M;
      int64_t I1 = std::min(M, I0 + End - Row);
      float *Cb = Cd + Bi * M * N;
      Body(Ad + BaseA[static_cast<size_t>(Bi)],
           SliceB[static_cast<size_t>(Bi)], Cb, I0, I1);
      if (Bias)
        for (int64_t I = I0; I < I1; ++I)
          addBiasRow(Cb + I * N, Bias, I, N, BiasS0, BiasS1);
      Row += I1 - I0;
    }
  };

  GemmRoute Route = D.route(Config, Rt.Prepacked != nullptr);
  int64_t Grain = detail::gemmRowGrain(N, K, Route.NR);
  if (Route.Path == GemmRoute::Panel) {
    // B repacked (or prepacked) into NR panels shared by every row that
    // reuses its slice.
    int NR = Route.NR;
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
          packBPanels(Bd + S * K * N, D.bKStride(), D.bNStride(), K, N, NR,
                      Dst + S * SliceElems);
      });
      Packed = Dst;
    }
    parallelFor(D.Batches * M, [&](int64_t Begin, int64_t End) {
      BatchRows(Begin, End, [&](const float *Ab, int64_t S, float *Cb,
                                int64_t I0, int64_t I1) {
        gemmPackedRows(Ab, D.aRowStride(), D.aColStride(),
                       Packed + S * SliceElems, Cb, N, I0, I1, N, K, NR,
                       nullptr, Level);
      });
    }, Grain);
    return;
  }

  // The narrow-rows tile (the scalar one when no AVX2 tile resolves) and
  // the naive walk read B in place.
  GemmNarrowRowsFn Tile = nullptr;
  if (Route.Path == GemmRoute::NarrowRows) {
    KernelLevel Level = effectiveKernelLevel(Config);
    if (Rt.Counters)
      ++Rt.Counters->PackedKernelCalls;
    countKernelDispatch(Rt.Counters, Level);
    Tile = resolveGemmNarrowRows(Level);
    if (!Tile)
      Tile = &gemmNarrowRowsScalar;
  } else if (Rt.Counters) {
    ++Rt.Counters->DirectKernelCalls;
  }
  const int64_t BK = D.bKStride(), BN = D.bNStride();
  parallelFor(D.Batches * M, [&](int64_t Begin, int64_t End) {
    BatchRows(Begin, End, [&](const float *Ab, int64_t S, float *Cb,
                              int64_t I0, int64_t I1) {
      const float *Bs = Bd + S * K * N;
      if (Tile)
        Tile(Ab, Bs, BK, BN, Cb, I0, I1, N, K);
      else if (BN == 1)
        gemmRowsNaive<false>(Ab, D.aRowStride(), D.aColStride(), Bs, BK, BN,
                             Cb, I0, I1, N, K);
      else
        gemmRowsNaive<true>(Ab, D.aRowStride(), D.aColStride(), Bs, BK, BN,
                            Cb, I0, I1, N, K);
    });
  }, Grain);
}

} // namespace

GemmDims dnnfusion::gemmDims(OpKind Kind, const AttrMap &Attrs,
                             const Shape &A, const Shape &B,
                             const Shape &Out) {
  GemmDims D;
  int Ro = Out.rank(), Rb = B.rank();
  D.M = Out.dim(Ro - 2);
  D.N = Out.dim(Ro - 1);
  if (Kind == OpKind::Gemm) {
    D.TransA = Attrs.getInt("transA", 0) != 0;
    D.TransB = Attrs.getInt("transB", 0) != 0;
    D.K = A.dim(D.TransA ? 0 : 1);
  } else {
    DNNF_CHECK(Kind == OpKind::MatMul, "unexpected kind in gemmDims");
    D.K = A.dim(A.rank() - 1);
  }
  // B's leading dims right-align against the output's.
  D.RowsPerSlice = D.M;
  for (int I = 0; I < Ro - 2; ++I) {
    int J = I - (Ro - Rb);
    int64_t BDim = J >= 0 ? B.dim(J) : 1;
    D.Batches *= Out.dim(I);
    D.BSlices *= BDim;
    if (BDim == 1)
      D.RowsPerSlice *= Out.dim(I);
  }
  return D;
}

int64_t dnnfusion::detail::gemmRowGrain(int64_t N, int64_t K, int NR) {
  int64_t PaddedN = NR > 0 ? (N + NR - 1) / NR * NR : N;
  int64_t RowMacs = std::max<int64_t>(PaddedN * K, 1);
  return std::max<int64_t>((GemmMacsPerSlice + RowMacs - 1) / RowMacs, 1);
}

void dnnfusion::detail::runMatMulKernel(
    OpKind Kind, const AttrMap &Attrs,
    const std::vector<const Tensor *> &Inputs, Tensor &Out,
    const KernelConfig &Config, const KernelRuntime &Rt) {
  runGemmDims(gemmDims(Kind, Attrs, Inputs[0]->shape(), Inputs[1]->shape(),
                       Out.shape()),
              Inputs, Out, Config, Rt);
}
