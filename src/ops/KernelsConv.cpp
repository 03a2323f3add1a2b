//===- ops/KernelsConv.cpp - Convolution kernels --------------------------------===//
//
// Conv runs on one Window (Kernels.h) along one of two paths: a
// column-tiled im2col feeding the packed GEMM engine, or the direct window
// loop that MaxPool and AveragePool share, one source for 1-, 2- and 3-D.
// Both honor strides, pads, dilations and groups, and both accumulate the
// bias first, then input channels, then kernel taps in ascending order.
// ConvTranspose (2-D only) keeps its own scatter loop.
//
//===----------------------------------------------------------------------===//

#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace dnnfusion;
using detail::Window;

namespace {

/// Column-tile width of the im2col pass: output pixels packed and
/// multiplied per tile, bounding the packing scratch.
constexpr int64_t ConvColTile = 1024;

/// A Conv's window and filter grouping, and the path it runs on. The
/// im2col path computes
/// Y[n, g*Fg + f, o] = bias[f] + sum_k W[f, k] * col[k, o] with
/// k = ci * KernelN + kflat — the direct loop's accumulation order — so the
/// packed result is bit-identical to the direct one wherever every tap is
/// in bounds; out-of-bounds taps contribute an exact +0.0f product instead
/// of being skipped (finite weights assumed).
struct ConvGeom {
  Window W;
  int64_t F = 0, Cg = 0, Group = 1, Fg = 0;
  int64_t K = 0;    ///< Cg * KernelN: the GEMM reduction length.
  int64_t Tile = 0; ///< im2col columns packed per pass; 0 = direct path.
};

ConvGeom convGeom(const AttrMap &Attrs, const Shape &XShape,
                  const Shape &WShape, const Shape &OutShape,
                  const KernelConfig &Config) {
  ConvGeom G;
  G.W = detail::window(
      Attrs, XShape, OutShape,
      std::vector<int64_t>(WShape.dims().begin() + 2, WShape.dims().end()));
  G.F = WShape.dim(0);
  G.Cg = WShape.dim(1);
  G.Group = Attrs.getInt("group", 1);
  G.Fg = G.F / G.Group;
  G.K = G.Cg * G.W.KernelN;
  // Profitability: the im2col pass costs one K x OutSpatial sweep per
  // (image, group); it amortizes over the Fg filter rows sharing the
  // columns. Depthwise (Fg == 1) and tiny problems stay direct.
  if (Config.UsePackedGemm && G.Fg >= 4 && G.K >= 8 && G.W.OutSpatial >= 8)
    G.Tile = std::min(G.W.OutSpatial, ConvColTile);
  return G;
}

void runConvPacked(const ConvGeom &G,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out,
                   const KernelConfig &Config, const KernelRuntime &Rt) {
  const float *X = Inputs[0]->data();
  const float *W = Inputs[1]->data();
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  constexpr int NR = GemmWideNR;
  KernelLevel Level = effectiveKernelLevel(Config);
  countKernelDispatch(Rt.Counters, Level);
  const Window &Wn = G.W;
  const int D0 = 3 - Wn.Sp; // First window dim in use.

  // Per-k tables: source channel and per-dimension (dilated) kernel
  // offsets, so the packing loop does no div/mod per element.
  std::vector<int> KCi(static_cast<size_t>(G.K));
  std::vector<int64_t> KOff(static_cast<size_t>(G.K * 3));
  for (int64_t Kk = 0; Kk < G.K; ++Kk) {
    KCi[static_cast<size_t>(Kk)] = static_cast<int>(Kk / Wn.KernelN);
    int64_t Rem = Kk % Wn.KernelN;
    for (int D = 2; D >= D0; --D) {
      KOff[static_cast<size_t>(Kk * 3 + D)] =
          (Rem % Wn.Kernel[D]) * Wn.Dil[D];
      Rem /= Wn.Kernel[D];
    }
  }

  PackBuffer Buf;
  float *Packed = Buf.acquire(Rt.PackScratch, Rt.PackScratchElems,
                              packedPanelElems(G.K, G.Tile, NR));

  for (int64_t Ni = 0; Ni < Wn.N; ++Ni) {
    for (int64_t Gi = 0; Gi < G.Group; ++Gi) {
      const float *Wg = W + Gi * G.Fg * G.K;
      const float *Xng = X + (Ni * Wn.C + Gi * G.Cg) * Wn.InSpatial;
      float *Yng = Out.data() + (Ni * G.F + Gi * G.Fg) * Wn.OutSpatial;
      const float *BiasG = Bias ? Bias + Gi * G.Fg : nullptr;
      for (int64_t T0 = 0; T0 < Wn.OutSpatial; T0 += G.Tile) {
        int64_t T = std::min(G.Tile, Wn.OutSpatial - T0);
        int64_t Panels = (T + NR - 1) / NR;
        // Build the im2col columns directly in packed panel layout.
        parallelFor(Panels, [&](int64_t PB, int64_t PE) {
          int64_t OBase[NR][3];
          for (int64_t Pp = PB; Pp < PE; ++Pp) {
            int Cols = static_cast<int>(std::min<int64_t>(NR, T - Pp * NR));
            for (int Jj = 0; Jj < Cols; ++Jj) {
              int64_t O = T0 + Pp * NR + Jj;
              for (int D = 2; D >= D0; --D) {
                OBase[Jj][D] = (O % Wn.Out[D]) * Wn.Stride[D] - Wn.Pad[D];
                O /= Wn.Out[D];
              }
            }
            float *Dst = Packed + Pp * G.K * NR;
            for (int64_t Kk = 0; Kk < G.K; ++Kk) {
              const float *Xc =
                  Xng + KCi[static_cast<size_t>(Kk)] * Wn.InSpatial;
              const int64_t *Off = &KOff[static_cast<size_t>(Kk * 3)];
              float *Row = Dst + Kk * NR;
              for (int Jj = 0; Jj < NR; ++Jj) {
                float V = 0.0f;
                if (Jj < Cols) {
                  int64_t Flat = 0;
                  bool Ok = true;
                  for (int D = D0; D < 3; ++D) {
                    int64_t In = OBase[Jj][D] + Off[D];
                    if (In < 0 || In >= Wn.In[D]) {
                      Ok = false;
                      break;
                    }
                    Flat = Flat * Wn.In[D] + In;
                  }
                  if (Ok)
                    V = Xc[Flat];
                }
                Row[Jj] = V;
              }
            }
          }
        });
        parallelFor(G.Fg, [&](int64_t Begin, int64_t End) {
          gemmPackedRows(Wg, G.K, 1, Packed, Yng + T0, Wn.OutSpatial, Begin,
                         End, T, G.K, NR, BiasG, Level);
        });
      }
    }
  }
}

/// The direct conv: one (image, filter) output plane per task, each
/// output the bias plus every in-bounds tap of every input channel of the
/// filter's group.
template <bool Depth>
void runConvDirect(const ConvGeom &G,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Window &Wn = G.W;
  const float *X = Inputs[0]->data(), *W = Inputs[1]->data();
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  parallelFor(Wn.N * G.F, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      int64_t Ni = Img / G.F, Fi = Img % G.F;
      const float *Xg = X + (Ni * Wn.C + Fi / G.Fg * G.Cg) * Wn.InSpatial;
      const float *Wf = W + Fi * G.Cg * Wn.KernelN;
      float BiasV = Bias ? Bias[Fi] : 0.0f;
      detail::forEachWindowRun<Depth>(
          Wn, Out.data() + Img * Wn.OutSpatial,
          [&](auto Lanes, float *Y, const detail::TapSpan &SD,
              const detail::TapSpan &SH, const detail::TapSpan &SW) {
            float Acc[Lanes];
            std::fill_n(Acc, Lanes, BiasV);
            for (int64_t Ci = 0; Ci < G.Cg; ++Ci) {
              const float *Xc = Xg + Ci * Wn.InSpatial;
              const float *Wc = Wf + Ci * Wn.KernelN;
              detail::forEachWindowTap<Depth>(
                  Wn, SD, SH, SW, [&](int64_t I, int64_t K) {
                    for (int J = 0; J < Lanes; ++J)
                      Acc[J] += Xc[I + J * Wn.Stride[2]] * Wc[K];
                  });
            }
            std::copy_n(Acc, Lanes, Y);
          });
    }
  });
}

void runConvTranspose(const AttrMap &Attrs,
                      const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t IH = X.shape().dim(2), IW = X.shape().dim(3);
  int64_t F = W.shape().dim(1), KH = W.shape().dim(2), KW = W.shape().dim(3);
  int64_t OH = Out.shape().dim(2), OW = Out.shape().dim(3);
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", 2, 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", 2, 0);

  parallelFor(N * F, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      int64_t Ni = Img / F, Fi = Img % F;
      float *Y = Out.data() + ((Ni * F + Fi) * OH) * OW;
      float BiasV = Bias ? Bias[Fi] : 0.0f;
      for (int64_t I = 0; I < OH * OW; ++I)
        Y[I] = BiasV;
      for (int64_t Ci = 0; Ci < C; ++Ci) {
        const float *Xc = X.data() + ((Ni * C + Ci) * IH) * IW;
        const float *Wc = W.data() + ((Ci * F + Fi) * KH) * KW;
        for (int64_t Ih = 0; Ih < IH; ++Ih)
          for (int64_t Iw = 0; Iw < IW; ++Iw) {
            float Xv = Xc[Ih * IW + Iw];
            for (int64_t Kh = 0; Kh < KH; ++Kh) {
              int64_t Oh = Ih * S[0] - P[0] + Kh;
              if (Oh < 0 || Oh >= OH)
                continue;
              for (int64_t Kw = 0; Kw < KW; ++Kw) {
                int64_t Ow = Iw * S[1] - P[1] + Kw;
                if (Ow < 0 || Ow >= OW)
                  continue;
                Y[Oh * OW + Ow] += Xv * Wc[Kh * KW + Kw];
              }
            }
          }
      }
    }
  });
}

} // namespace

Window dnnfusion::detail::window(const AttrMap &Attrs, const Shape &X,
                                 const Shape &Out,
                                 const std::vector<int64_t> &Kernel) {
  Window W;
  W.Sp = X.rank() - 2;
  DNNF_CHECK(W.Sp >= 1 && W.Sp <= 3 &&
                 Kernel.size() == static_cast<size_t>(W.Sp),
             "a window needs 1 to 3 spatial dims and one kernel extent each");
  size_t Sp = static_cast<size_t>(W.Sp);
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", Sp, 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", Sp, 0);
  std::vector<int64_t> D = spatialAttr(Attrs, "dilations", Sp, 1);
  W.N = X.dim(0);
  W.C = X.dim(1);
  for (size_t I = 0; I < Sp; ++I) {
    size_t J = 3 - Sp + I;
    int Dim = static_cast<int>(I) + 2;
    W.In[J] = X.dim(Dim);
    W.Out[J] = Out.dim(Dim);
    W.Kernel[J] = Kernel[I];
    W.Stride[J] = S[I];
    W.Pad[J] = P[I];
    W.Dil[J] = D[I];
    W.InSpatial *= W.In[J];
    W.OutSpatial *= W.Out[J];
    W.KernelN *= W.Kernel[J];
  }
  return W;
}

int64_t dnnfusion::detail::convPackScratchElems(const AttrMap &Attrs,
                                                const Shape &XShape,
                                                const Shape &WShape,
                                                const Shape &OutShape,
                                                const KernelConfig &Config) {
  ConvGeom G = convGeom(Attrs, XShape, WShape, OutShape, Config);
  return G.Tile ? packedPanelElems(G.K, G.Tile, GemmWideNR) : 0;
}

void dnnfusion::detail::runConvKernel(OpKind Kind, const AttrMap &Attrs,
                                      const std::vector<const Tensor *> &Inputs,
                                      Tensor &Out, const KernelConfig &Config,
                                      const KernelRuntime &Rt) {
  if (Kind == OpKind::ConvTranspose)
    return runConvTranspose(Attrs, Inputs, Out);
  DNNF_CHECK(Kind == OpKind::Conv, "unexpected kind in runConvKernel");
  ConvGeom G = convGeom(Attrs, Inputs[0]->shape(), Inputs[1]->shape(),
                        Out.shape(), Config);
  if (Rt.Counters)
    ++(G.Tile ? Rt.Counters->PackedKernelCalls
              : Rt.Counters->DirectKernelCalls);
  if (G.Tile)
    return runConvPacked(G, Inputs, Out, Config, Rt);
  if (G.W.Sp == 3)
    return runConvDirect<true>(G, Inputs, Out);
  runConvDirect<false>(G, Inputs, Out);
}
