//===- ops/KernelsPoolReduce.cpp - Pooling/reduction reference kernels ---------===//

#include "ops/Kernels.h"
#include "ops/OpSchema.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace dnnfusion;

namespace {

/// MaxPool/AveragePool on the direct window loop: one (image, channel)
/// plane per task. AveragePool divides by the in-bounds taps only.
template <bool Depth>
void runPool(bool IsMax, const detail::Window &W, const Tensor &X,
             Tensor &Out) {
  parallelFor(W.N * W.C, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      const float *Xc = X.data() + Img * W.InSpatial;
      detail::forEachWindowRun<Depth>(
          W, Out.data() + Img * W.OutSpatial,
          [&](auto Lanes, float *Y, const detail::TapSpan &SD,
              const detail::TapSpan &SH, const detail::TapSpan &SW) {
            float Acc[Lanes];
            std::fill_n(Acc, Lanes,
                        IsMax ? -std::numeric_limits<float>::infinity()
                              : 0.0f);
            detail::forEachWindowTap<Depth>(
                W, SD, SH, SW, [&](int64_t I, int64_t) {
                  for (int J = 0; J < Lanes; ++J) {
                    float V = Xc[I + J * W.Stride[2]];
                    Acc[J] = IsMax ? (V > Acc[J] ? V : Acc[J]) : Acc[J] + V;
                  }
                });
            int64_t Valid = (SD.End - SD.Begin) * (SH.End - SH.Begin) *
                            (SW.End - SW.Begin);
            for (int J = 0; J < Lanes; ++J)
              Y[J] = IsMax ? Acc[J]
                           : (Valid > 0 ? Acc[J] / static_cast<float>(Valid)
                                        : 0.0f);
          });
    }
  });
}

void runPool(OpKind Kind, const AttrMap &Attrs, const Tensor &X,
             Tensor &Out) {
  detail::Window W = detail::window(Attrs, X.shape(), Out.shape(),
                                    Attrs.requireInts("kernel"));
  bool IsMax = Kind == OpKind::MaxPool;
  if (W.Sp == 3)
    return runPool<true>(IsMax, W, X, Out);
  runPool<false>(IsMax, W, X, Out);
}

void runGlobalAveragePool(const Tensor &X, Tensor &Out) {
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t SpatialN = X.numElements() / (N * C);
  parallelFor(N * C, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      const float *Xc = X.data() + Img * SpatialN;
      double Acc = 0.0;
      for (int64_t I = 0; I < SpatialN; ++I)
        Acc += Xc[I];
      Out.at(Img) = static_cast<float>(Acc / static_cast<double>(SpatialN));
    }
  });
}

void runReduce(OpKind Kind, const AttrMap &Attrs, const Tensor &X,
               Tensor &Out) {
  std::vector<int64_t> Axes = Attrs.requireInts("axes");
  int Rank = X.shape().rank();
  std::vector<bool> Reduced(static_cast<size_t>(Rank), false);
  int64_t ReducedN = 1;
  for (int64_t Axis : Axes) {
    if (Axis < 0)
      Axis += Rank;
    Reduced[static_cast<size_t>(Axis)] = true;
  }
  for (int D = 0; D < Rank; ++D)
    if (Reduced[static_cast<size_t>(D)])
      ReducedN *= X.shape().dim(D);

  float Init = 0.0f;
  if (Kind == OpKind::ReduceMax)
    Init = -std::numeric_limits<float>::infinity();
  else if (Kind == OpKind::ReduceMin)
    Init = std::numeric_limits<float>::infinity();
  else if (Kind == OpKind::ReduceProd)
    Init = 1.0f;
  for (int64_t I = 0, E = Out.numElements(); I < E; ++I)
    Out.at(I) = Init;

  // Walk the input once; the output offset follows strides that are zero
  // on reduced dimensions.
  std::vector<int64_t> OutStrides(static_cast<size_t>(Rank), 0);
  {
    int64_t Stride = 1;
    // Build strides over kept dims, matching Out's layout (keepdims or not).
    for (int D = Rank - 1; D >= 0; --D) {
      if (!Reduced[static_cast<size_t>(D)]) {
        OutStrides[static_cast<size_t>(D)] = Stride;
        Stride *= X.shape().dim(D);
      }
    }
  }

  std::vector<int64_t> Coords;
  for (int64_t Flat = 0, N = X.numElements(); Flat < N; ++Flat) {
    X.shape().unflatten(Flat, Coords);
    int64_t OutFlat = 0;
    for (int D = 0; D < Rank; ++D)
      OutFlat += Coords[static_cast<size_t>(D)] * OutStrides[static_cast<size_t>(D)];
    float V = X.at(Flat);
    float &Acc = Out.at(OutFlat);
    switch (Kind) {
    case OpKind::ReduceSum:
    case OpKind::ReduceMean:
      Acc += V;
      break;
    case OpKind::ReduceMax:
      Acc = V > Acc ? V : Acc;
      break;
    case OpKind::ReduceMin:
      Acc = V < Acc ? V : Acc;
      break;
    case OpKind::ReduceProd:
      Acc *= V;
      break;
    default:
      reportFatalErrorf("runReduce: unexpected kind %s", opKindName(Kind));
    }
  }
  if (Kind == OpKind::ReduceMean)
    for (int64_t I = 0, E = Out.numElements(); I < E; ++I)
      Out.at(I) /= static_cast<float>(ReducedN);
}

/// Decomposes \p S at \p Axis into (Outer, Axis extent, Inner).
void axisSplit(const Shape &S, int64_t Axis, int64_t &Outer, int64_t &AxisN,
               int64_t &Inner) {
  if (Axis < 0)
    Axis += S.rank();
  Outer = 1;
  Inner = 1;
  for (int D = 0; D < S.rank(); ++D) {
    if (D < Axis)
      Outer *= S.dim(D);
    else if (D > Axis)
      Inner *= S.dim(D);
  }
  AxisN = S.dim(static_cast<int>(Axis));
}

void runSoftmax(const AttrMap &Attrs, const Tensor &X, Tensor &Out) {
  int64_t Outer, AxisN, Inner;
  axisSplit(X.shape(), Attrs.getInt("axis", -1), Outer, AxisN, Inner);
  parallelFor(Outer * Inner, [&](int64_t Begin, int64_t End) {
    for (int64_t P = Begin; P < End; ++P) {
      int64_t O = P / Inner, I = P % Inner;
      const float *Xv = X.data() + O * AxisN * Inner + I;
      float *Yv = Out.data() + O * AxisN * Inner + I;
      float Max = -std::numeric_limits<float>::infinity();
      for (int64_t A = 0; A < AxisN; ++A)
        Max = Xv[A * Inner] > Max ? Xv[A * Inner] : Max;
      float Sum = 0.0f;
      for (int64_t A = 0; A < AxisN; ++A) {
        float E = std::exp(Xv[A * Inner] - Max);
        Yv[A * Inner] = E;
        Sum += E;
      }
      float Inv = 1.0f / Sum;
      for (int64_t A = 0; A < AxisN; ++A)
        Yv[A * Inner] *= Inv;
    }
  });
}

void runCumSum(const AttrMap &Attrs, const Tensor &X, Tensor &Out) {
  int64_t Outer, AxisN, Inner;
  axisSplit(X.shape(), Attrs.getInt("axis", 0), Outer, AxisN, Inner);
  for (int64_t O = 0; O < Outer; ++O)
    for (int64_t I = 0; I < Inner; ++I) {
      float Acc = 0.0f;
      for (int64_t A = 0; A < AxisN; ++A) {
        int64_t Flat = (O * AxisN + A) * Inner + I;
        Acc += X.at(Flat);
        Out.at(Flat) = Acc;
      }
    }
}

void runInstanceNorm(const AttrMap &Attrs,
                     const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Tensor &X = *Inputs[0], &Scale = *Inputs[1], &Bias = *Inputs[2];
  float Eps = static_cast<float>(Attrs.getFloat("epsilon", 1e-5));
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t SpatialN = X.numElements() / (N * C);
  parallelFor(N * C, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      int64_t Ci = Img % C;
      const float *Xc = X.data() + Img * SpatialN;
      float *Yc = Out.data() + Img * SpatialN;
      double Sum = 0.0, SumSq = 0.0;
      for (int64_t I = 0; I < SpatialN; ++I) {
        Sum += Xc[I];
        SumSq += static_cast<double>(Xc[I]) * Xc[I];
      }
      double Mean = Sum / static_cast<double>(SpatialN);
      double Var = SumSq / static_cast<double>(SpatialN) - Mean * Mean;
      float Inv = static_cast<float>(1.0 / std::sqrt(Var + Eps));
      float Sc = Scale.at(Ci), Bi = Bias.at(Ci);
      for (int64_t I = 0; I < SpatialN; ++I)
        Yc[I] = Sc * (Xc[I] - static_cast<float>(Mean)) * Inv + Bi;
    }
  });
}

} // namespace

void dnnfusion::detail::runPoolReduceKernel(
    OpKind Kind, const AttrMap &Attrs,
    const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  switch (Kind) {
  case OpKind::MaxPool:
  case OpKind::AveragePool:
    return runPool(Kind, Attrs, *Inputs[0], Out);
  case OpKind::GlobalAveragePool:
    return runGlobalAveragePool(*Inputs[0], Out);
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd:
    return runReduce(Kind, Attrs, *Inputs[0], Out);
  case OpKind::Softmax:
    return runSoftmax(Attrs, *Inputs[0], Out);
  case OpKind::CumSum:
    return runCumSum(Attrs, *Inputs[0], Out);
  case OpKind::InstanceNormalization:
    return runInstanceNorm(Attrs, Inputs, Out);
  default:
    reportFatalErrorf("runPoolReduceKernel: unhandled %s", opKindName(Kind));
  }
}
