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

/// Counts one MatMul/Gemm call that skips the panel route and returns the
/// tile its rows run on: for the narrow-rows route, the tile at the
/// config's tier (the scalar tile when no AVX2 tile resolves); null,
/// meaning the naive row walk, for the naive route.
GemmNarrowRowsFn countRowRoute(const GemmRoute &Route,
                               const KernelConfig &Config,
                               EngineCounters *Counters) {
  if (Route.Path != GemmRoute::NarrowRows) {
    if (Counters)
      ++Counters->DirectKernelCalls;
    return nullptr;
  }
  KernelLevel Level = effectiveKernelLevel(Config);
  if (Counters)
    ++Counters->PackedKernelCalls;
  countKernelDispatch(Counters, Level);
  if (GemmNarrowRowsFn Fn = resolveGemmNarrowRows(Level))
    return Fn;
  return &gemmNarrowRowsScalar;
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

  const float *Ad = A.data(), *Bd = B.data();
  float *Cd = Out.data();
  // Rows [Begin, End) of the flat Batches * M row space, one call per
  // batch they touch: Body(A rows, B slice, C rows, first row, end row).
  auto BatchRows = [&](int64_t Begin, int64_t End, auto &&Body) {
    for (int64_t Row = Begin; Row < End;) {
      int64_t Bi = Row / M, I = Row % M;
      int64_t Rows = std::min(M - I, End - Row);
      Body(Ad + BaseA[static_cast<size_t>(Bi)],
           SliceB[static_cast<size_t>(Bi)], Cd + Bi * M * N, I, I + Rows);
      Row += Rows;
    }
  };

  // Every row of every batch that maps onto the same B slice reuses it.
  int64_t EffM = D.BSlices > 0 ? (Batches * M) / D.BSlices : M;
  GemmRoute Route = gemmRoute(Config, EffM, N, K, /*TransA=*/false,
                              Rt.Prepacked != nullptr);
  int64_t Grain = detail::gemmRowGrain(N, K, Route.NR);
  if (Route.Path == GemmRoute::Panel) {
    // B repacked (or prepacked) into NR panels shared by every row that
    // reuses its slice.
    int NR = Route.NR;
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
          packBPanels(Bd + S * K * N, N, 1, K, N, NR, Dst + S * SliceElems);
      });
      Packed = Dst;
    }
    parallelFor(Batches * M, [&](int64_t Begin, int64_t End) {
      BatchRows(Begin, End, [&](const float *Ab, int64_t S, float *Cb,
                                int64_t I0, int64_t I1) {
        gemmPackedRows(Ab, K, 1, Packed + S * SliceElems, Cb, N, I0, I1, N,
                       K, MR, NR, nullptr, Level);
      });
    }, Grain);
    return;
  }

  // The narrow-rows tile reads B in place.
  GemmNarrowRowsFn Tile = countRowRoute(Route, Config, Rt.Counters);
  parallelFor(Batches * M, [&](int64_t Begin, int64_t End) {
    BatchRows(Begin, End, [&](const float *Ab, int64_t S, float *Cb,
                              int64_t I0, int64_t I1) {
      const float *Bs = Bd + S * K * N;
      if (Tile)
        Tile(Ab, Bs, N, 1, Cb, I0, I1, N, K);
      else
        matmulRows(Ab, Bs, Cb, I0, I1, N, K);
    });
  }, Grain);
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

  auto AddBias = [&](int64_t Begin, int64_t End) {
    if (Bias)
      for (int64_t I = Begin; I < End; ++I)
        addBiasRow(Out.data() + I * N, Bias, I, N, BiasS0, BiasS1);
  };
  GemmRoute Route = gemmRoute(Config, M, N, K, TA, Rt.Prepacked != nullptr);
  int64_t Grain = detail::gemmRowGrain(N, K, Route.NR);
  if (Route.Path == GemmRoute::Panel) {
    int NR = Route.NR;
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
      AddBias(Begin, End);
    }, Grain);
    return;
  }

  // The narrow-rows tile (only with transA = 0) reads B in place.
  GemmNarrowRowsFn Tile = countRowRoute(Route, Config, Rt.Counters);
  auto RunRows = [&](int64_t Begin, int64_t End) {
    if (Tile)
      Tile(A.data(), B.data(), TB ? 1 : N, TB ? K : 1, Out.data(), Begin,
           End, N, K);
    else if (TA) {
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
    AddBias(Begin, End);
  };
  parallelFor(M, RunRows, Grain);
}

} // namespace

int64_t dnnfusion::detail::gemmRowGrain(int64_t N, int64_t K, int NR) {
  int64_t PaddedN = NR > 0 ? (N + NR - 1) / NR * NR : N;
  int64_t RowMacs = std::max<int64_t>(PaddedN * K, 1);
  return std::max<int64_t>((GemmMacsPerSlice + RowMacs - 1) / RowMacs, 1);
}

int64_t dnnfusion::detail::matmulPackScratchElems(
    OpKind Kind, const AttrMap &Attrs, const Shape &AShape,
    const Shape &BShape, const Shape &OutShape, const KernelConfig &Config) {
  if (Kind == OpKind::MatMul) {
    MatMulDims D = matmulDims(AShape, BShape, OutShape);
    int64_t EffM = D.BSlices > 0 ? (D.Batches * D.M) / D.BSlices : D.M;
    GemmRoute R = gemmRoute(Config, EffM, D.N, D.K, /*TransA=*/false,
                            /*Prepacked=*/false);
    return R.Path == GemmRoute::Panel
               ? D.BSlices * packedPanelElems(D.K, D.N, R.NR)
               : 0;
  }
  DNNF_CHECK(Kind == OpKind::Gemm, "unexpected kind in matmulPackScratchElems");
  bool TA = Attrs.getInt("transA", 0) != 0;
  int64_t M = OutShape.dim(0), N = OutShape.dim(1);
  int64_t K = TA ? AShape.dim(0) : AShape.dim(1);
  GemmRoute R = gemmRoute(Config, M, N, K, TA, /*Prepacked=*/false);
  return R.Path == GemmRoute::Panel ? packedPanelElems(K, N, R.NR) : 0;
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
