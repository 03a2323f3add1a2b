//===- ops/KernelsConv.cpp - Convolution kernels --------------------------------===//

#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstring>

using namespace dnnfusion;

namespace {

std::vector<int64_t> spatialAttr(const AttrMap &Attrs, const char *Name,
                                 size_t Count, int64_t Default) {
  std::vector<int64_t> V = Attrs.getInts(Name);
  if (V.empty())
    V.assign(Count, Default);
  return V;
}

//===----------------------------------------------------------------------===//
// im2col + packed GEMM path
//===----------------------------------------------------------------------===//

/// Column-tile width of the im2col pass: output pixels packed and
/// multiplied per tile, bounding the packing scratch.
constexpr int64_t ConvColTile = 1024;

/// Geometry of a Conv lowered to column-tiled im2col GEMM:
/// Y[n, g*Fg + f, o] = bias[f] + sum_k W[f, k] * col[k, o] with
/// k = ci * kernelN + kflat — exactly the direct kernels' accumulation
/// order (Ci outer, kernel coordinates inner, ascending), so the packed
/// result is bit-identical to the direct result wherever every tap is
/// in bounds; out-of-bounds taps contribute an exact +0.0f product
/// instead of being skipped (finite weights assumed).
struct ConvPackGeom {
  bool Eligible = false;
  int Sp = 0;
  int64_t N = 0, C = 0, F = 0, Cg = 0, Group = 1, Fg = 0;
  int64_t K = 0; ///< Cg * kernelN: the GEMM reduction length.
  int64_t OutSpatial = 1, InSpatial = 1;
  int64_t KDims[3] = {1, 1, 1}, IDims[3] = {1, 1, 1}, ODims[3] = {1, 1, 1};
  int64_t S[3] = {1, 1, 1}, P[3] = {0, 0, 0}, Dil[3] = {1, 1, 1};
  int64_t Tile = 0; ///< im2col columns packed per pass.
};

ConvPackGeom convPackGeom(const AttrMap &Attrs, const Shape &XShape,
                          const Shape &WShape, const Shape &OutShape,
                          const KernelConfig &Config) {
  ConvPackGeom G;
  if (!Config.UsePackedGemm)
    return G;
  int Sp = XShape.rank() - 2;
  if (Sp < 1 || Sp > 3)
    return G;
  G.Sp = Sp;
  G.N = XShape.dim(0);
  G.C = XShape.dim(1);
  G.F = WShape.dim(0);
  G.Cg = WShape.dim(1);
  G.Group = Attrs.getInt("group", 1);
  G.Fg = G.F / G.Group;
  size_t USp = static_cast<size_t>(Sp);
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", USp, 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", USp, 0);
  std::vector<int64_t> D = spatialAttr(Attrs, "dilations", USp, 1);
  int64_t KernelN = 1;
  for (int I = 0; I < Sp; ++I) {
    G.KDims[I] = WShape.dim(2 + I);
    G.IDims[I] = XShape.dim(2 + I);
    G.ODims[I] = OutShape.dim(2 + I);
    G.S[I] = S[static_cast<size_t>(I)];
    G.P[I] = P[static_cast<size_t>(I)];
    G.Dil[I] = D[static_cast<size_t>(I)];
    KernelN *= G.KDims[I];
    G.OutSpatial *= G.ODims[I];
    G.InSpatial *= G.IDims[I];
  }
  // The direct 3-D kernel ignores the dilations attribute; mirror it so
  // the two paths can never disagree on semantics.
  if (Sp == 3)
    for (int I = 0; I < 3; ++I)
      if (G.Dil[I] != 1)
        return G;
  G.K = G.Cg * KernelN;
  // Profitability: the im2col pass costs one K x OutSpatial sweep per
  // (image, group); it amortizes over the Fg filter rows sharing the
  // columns. Depthwise (Fg == 1) and tiny problems stay direct.
  if (G.Fg < 4 || G.K < 8 || G.OutSpatial < 8)
    return G;
  G.Tile = std::min(G.OutSpatial, ConvColTile);
  G.Eligible = true;
  return G;
}

/// Elements of packing scratch the packed conv path needs.
int64_t convPackElems(const ConvPackGeom &G, int NR) {
  return packedPanelElems(G.K, G.Tile, NR);
}

void runConvPacked(const ConvPackGeom &G,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out,
                   const KernelConfig &Config, const KernelRuntime &Rt) {
  const float *X = Inputs[0]->data();
  const float *W = Inputs[1]->data();
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int NR = clampPackNR(Config.PackNR);
  int MR = clampPackMR(Config.PackMR);
  KernelLevel Level = effectiveKernelLevel(Config);
  countKernelDispatch(Rt.Counters, Level);
  int Sp = G.Sp;

  // Per-k tables: source channel and per-dimension (dilated) kernel
  // offsets, so the packing loop does no div/mod per element.
  std::vector<int> KCi(static_cast<size_t>(G.K));
  std::vector<int64_t> KOff(static_cast<size_t>(G.K * Sp));
  int64_t KernelN = G.K / G.Cg;
  for (int64_t Kk = 0; Kk < G.K; ++Kk) {
    KCi[static_cast<size_t>(Kk)] = static_cast<int>(Kk / KernelN);
    int64_t Rem = Kk % KernelN;
    for (int D = Sp - 1; D >= 0; --D) {
      KOff[static_cast<size_t>(Kk * Sp + D)] =
          (Rem % G.KDims[D]) * G.Dil[D];
      Rem /= G.KDims[D];
    }
  }

  PackBuffer Buf;
  float *Packed = Buf.acquire(Rt.PackScratch, Rt.PackScratchElems,
                              convPackElems(G, NR));

  for (int64_t Ni = 0; Ni < G.N; ++Ni) {
    for (int64_t Gi = 0; Gi < G.Group; ++Gi) {
      const float *Wg = W + Gi * G.Fg * G.K;
      const float *Xng = X + (Ni * G.C + Gi * G.Cg) * G.InSpatial;
      float *Yng = Out.data() + (Ni * G.F + Gi * G.Fg) * G.OutSpatial;
      const float *BiasG = Bias ? Bias + Gi * G.Fg : nullptr;
      for (int64_t T0 = 0; T0 < G.OutSpatial; T0 += G.Tile) {
        int64_t T = std::min(G.Tile, G.OutSpatial - T0);
        int64_t Panels = (T + NR - 1) / NR;
        // Build the im2col columns directly in packed panel layout.
        parallelFor(Panels, [&](int64_t PB, int64_t PE) {
          int64_t OBase[GemmMaxNR][3];
          for (int64_t Pp = PB; Pp < PE; ++Pp) {
            int Cols = static_cast<int>(std::min<int64_t>(NR, T - Pp * NR));
            for (int Jj = 0; Jj < Cols; ++Jj) {
              int64_t O = T0 + Pp * NR + Jj;
              for (int D = Sp - 1; D >= 0; --D) {
                OBase[Jj][D] = (O % G.ODims[D]) * G.S[D] - G.P[D];
                O /= G.ODims[D];
              }
            }
            float *Dst = Packed + Pp * G.K * NR;
            for (int64_t Kk = 0; Kk < G.K; ++Kk) {
              const float *Xc =
                  Xng + KCi[static_cast<size_t>(Kk)] * G.InSpatial;
              const int64_t *Off = &KOff[static_cast<size_t>(Kk * Sp)];
              float *Row = Dst + Kk * NR;
              for (int Jj = 0; Jj < NR; ++Jj) {
                float V = 0.0f;
                if (Jj < Cols) {
                  int64_t Flat = 0;
                  bool Ok = true;
                  for (int D = 0; D < Sp; ++D) {
                    int64_t In = OBase[Jj][D] + Off[D];
                    if (In < 0 || In >= G.IDims[D]) {
                      Ok = false;
                      break;
                    }
                    Flat = Flat * G.IDims[D] + In;
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
          gemmPackedRows(Wg, G.K, 1, Packed, Yng + T0, G.OutSpatial, Begin,
                         End, T, G.K, MR, NR, BiasG, Level);
        });
      }
    }
  }
}

/// Direct 2-D convolution over one (n, f) output image.
void conv2dImage(const float *X, const float *W, const float *Bias, float *Y,
                 int64_t N, int64_t C, int64_t IH, int64_t IW, int64_t F,
                 int64_t Cg, int64_t KH, int64_t KW, int64_t OH, int64_t OW,
                 int64_t SH, int64_t SW, int64_t PH, int64_t PW, int64_t DH,
                 int64_t DW, int64_t Group, int64_t Ni, int64_t Fi) {
  (void)N;
  int64_t CBase = (Fi / (F / Group)) * Cg;
  float BiasV = Bias ? Bias[Fi] : 0.0f;
  for (int64_t Oh = 0; Oh < OH; ++Oh)
    for (int64_t Ow = 0; Ow < OW; ++Ow) {
      float Acc = BiasV;
      for (int64_t Ci = 0; Ci < Cg; ++Ci) {
        const float *Xc = X + ((Ni * C + CBase + Ci) * IH) * IW;
        const float *Wc = W + ((Fi * Cg + Ci) * KH) * KW;
        for (int64_t Kh = 0; Kh < KH; ++Kh) {
          int64_t Ih = Oh * SH - PH + Kh * DH;
          if (Ih < 0 || Ih >= IH)
            continue;
          const float *Xrow = Xc + Ih * IW;
          const float *Wrow = Wc + Kh * KW;
          for (int64_t Kw = 0; Kw < KW; ++Kw) {
            int64_t Iw = Ow * SW - PW + Kw * DW;
            if (Iw < 0 || Iw >= IW)
              continue;
            Acc += Xrow[Iw] * Wrow[Kw];
          }
        }
      }
      Y[Oh * OW + Ow] = Acc;
    }
}

void runConv2d(const AttrMap &Attrs, const std::vector<const Tensor *> &Inputs,
               Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t IH = X.shape().dim(2), IW = X.shape().dim(3);
  int64_t F = W.shape().dim(0), Cg = W.shape().dim(1);
  int64_t KH = W.shape().dim(2), KW = W.shape().dim(3);
  int64_t OH = Out.shape().dim(2), OW = Out.shape().dim(3);
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", 2, 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", 2, 0);
  std::vector<int64_t> D = spatialAttr(Attrs, "dilations", 2, 1);
  int64_t Group = Attrs.getInt("group", 1);

  parallelFor(N * F, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I) {
      int64_t Ni = I / F, Fi = I % F;
      conv2dImage(X.data(), W.data(), Bias,
                  Out.data() + ((Ni * F + Fi) * OH) * OW, N, C, IH, IW, F, Cg,
                  KH, KW, OH, OW, S[0], S[1], P[0], P[1], D[0], D[1], Group,
                  Ni, Fi);
    }
  });
}

/// Direct 3-D convolution, one (n, f) output volume per task.
void runConv3d(const AttrMap &Attrs, const std::vector<const Tensor *> &Inputs,
               Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t ID = X.shape().dim(2), IH = X.shape().dim(3), IW = X.shape().dim(4);
  int64_t F = W.shape().dim(0), Cg = W.shape().dim(1);
  int64_t KD = W.shape().dim(2), KH = W.shape().dim(3), KW = W.shape().dim(4);
  int64_t OD = Out.shape().dim(2), OH = Out.shape().dim(3),
          OW = Out.shape().dim(4);
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", 3, 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", 3, 0);
  int64_t Group = Attrs.getInt("group", 1);

  parallelFor(N * F, [&](int64_t Begin, int64_t End) {
    for (int64_t Img = Begin; Img < End; ++Img) {
      int64_t Ni = Img / F, Fi = Img % F;
      int64_t CBase = (Fi / (F / Group)) * Cg;
      float *Y = Out.data() + Img * OD * OH * OW;
      float BiasV = Bias ? Bias[Fi] : 0.0f;
      for (int64_t Od = 0; Od < OD; ++Od)
        for (int64_t Oh = 0; Oh < OH; ++Oh)
          for (int64_t Ow = 0; Ow < OW; ++Ow) {
            float Acc = BiasV;
            for (int64_t Ci = 0; Ci < Cg; ++Ci) {
              const float *Xc =
                  X.data() + ((Ni * C + CBase + Ci) * ID) * IH * IW;
              const float *Wc = W.data() + ((Fi * Cg + Ci) * KD) * KH * KW;
              for (int64_t Kd = 0; Kd < KD; ++Kd) {
                int64_t Id = Od * S[0] - P[0] + Kd;
                if (Id < 0 || Id >= ID)
                  continue;
                for (int64_t Kh = 0; Kh < KH; ++Kh) {
                  int64_t Ih = Oh * S[1] - P[1] + Kh;
                  if (Ih < 0 || Ih >= IH)
                    continue;
                  const float *Xrow = Xc + (Id * IH + Ih) * IW;
                  const float *Wrow = Wc + (Kd * KH + Kh) * KW;
                  for (int64_t Kw = 0; Kw < KW; ++Kw) {
                    int64_t Iw = Ow * S[2] - P[2] + Kw;
                    if (Iw < 0 || Iw >= IW)
                      continue;
                    Acc += Xrow[Iw] * Wrow[Kw];
                  }
                }
              }
            }
            Y[(Od * OH + Oh) * OW + Ow] = Acc;
          }
    }
  });
}

/// Generic N-spatial-dimension convolution (used for 1-D).
void runConvGeneric(const AttrMap &Attrs,
                    const std::vector<const Tensor *> &Inputs, Tensor &Out) {
  const Tensor &X = *Inputs[0], &W = *Inputs[1];
  const float *Bias = Inputs.size() == 3 ? Inputs[2]->data() : nullptr;
  int Sp = X.shape().rank() - 2;
  int64_t N = X.shape().dim(0), C = X.shape().dim(1);
  int64_t F = W.shape().dim(0), Cg = W.shape().dim(1);
  std::vector<int64_t> K(W.shape().dims().begin() + 2, W.shape().dims().end());
  std::vector<int64_t> ISp(X.shape().dims().begin() + 2,
                           X.shape().dims().end());
  std::vector<int64_t> OSp(Out.shape().dims().begin() + 2,
                           Out.shape().dims().end());
  std::vector<int64_t> S = spatialAttr(Attrs, "strides", K.size(), 1);
  std::vector<int64_t> P = spatialAttr(Attrs, "pads", K.size(), 0);
  std::vector<int64_t> D = spatialAttr(Attrs, "dilations", K.size(), 1);
  int64_t Group = Attrs.getInt("group", 1);

  int64_t OutSpatialN = 1, KernelN = 1, InSpatialN = 1;
  for (int I = 0; I < Sp; ++I) {
    OutSpatialN *= OSp[static_cast<size_t>(I)];
    KernelN *= K[static_cast<size_t>(I)];
    InSpatialN *= ISp[static_cast<size_t>(I)];
  }

  parallelFor(N * F, [&](int64_t Begin, int64_t End) {
    std::vector<int64_t> OCoord(static_cast<size_t>(Sp));
    std::vector<int64_t> KCoord(static_cast<size_t>(Sp));
    for (int64_t Img = Begin; Img < End; ++Img) {
      int64_t Ni = Img / F, Fi = Img % F;
      int64_t CBase = (Fi / (F / Group)) * Cg;
      float *Y = Out.data() + (Ni * F + Fi) * OutSpatialN;
      for (int64_t O = 0; O < OutSpatialN; ++O) {
        int64_t Rem = O;
        for (int Dd = Sp - 1; Dd >= 0; --Dd) {
          OCoord[static_cast<size_t>(Dd)] = Rem % OSp[static_cast<size_t>(Dd)];
          Rem /= OSp[static_cast<size_t>(Dd)];
        }
        float Acc = Bias ? Bias[Fi] : 0.0f;
        for (int64_t Ci = 0; Ci < Cg; ++Ci) {
          const float *Xc = X.data() + (Ni * C + CBase + Ci) * InSpatialN;
          const float *Wc = W.data() + (Fi * Cg + Ci) * KernelN;
          for (int64_t Kk = 0; Kk < KernelN; ++Kk) {
            int64_t KRem = Kk;
            bool InBounds = true;
            int64_t InFlat = 0;
            for (int Dd = Sp - 1; Dd >= 0; --Dd) {
              KCoord[static_cast<size_t>(Dd)] =
                  KRem % K[static_cast<size_t>(Dd)];
              KRem /= K[static_cast<size_t>(Dd)];
            }
            int64_t Stride = 1;
            for (int Dd = Sp - 1; Dd >= 0; --Dd) {
              size_t Ds = static_cast<size_t>(Dd);
              int64_t In = OCoord[Ds] * S[Ds] - P[Ds] + KCoord[Ds] * D[Ds];
              if (In < 0 || In >= ISp[Ds]) {
                InBounds = false;
                break;
              }
              InFlat += In * Stride;
              Stride *= ISp[Ds];
            }
            if (InBounds)
              Acc += Xc[InFlat] * Wc[Kk];
          }
        }
        Y[O] = Acc;
      }
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

int64_t dnnfusion::detail::convPackScratchElems(const AttrMap &Attrs,
                                                const Shape &XShape,
                                                const Shape &WShape,
                                                const Shape &OutShape,
                                                const KernelConfig &Config) {
  ConvPackGeom G = convPackGeom(Attrs, XShape, WShape, OutShape, Config);
  return G.Eligible ? convPackElems(G, clampPackNR(Config.PackNR)) : 0;
}

void dnnfusion::detail::runConvKernel(OpKind Kind, const AttrMap &Attrs,
                                      const std::vector<const Tensor *> &Inputs,
                                      Tensor &Out, const KernelConfig &Config,
                                      const KernelRuntime &Rt) {
  if (Kind == OpKind::ConvTranspose)
    return runConvTranspose(Attrs, Inputs, Out);
  DNNF_CHECK(Kind == OpKind::Conv, "unexpected kind in runConvKernel");
  ConvPackGeom G = convPackGeom(Attrs, Inputs[0]->shape(),
                                Inputs[1]->shape(), Out.shape(), Config);
  if (G.Eligible) {
    if (Rt.Counters)
      ++Rt.Counters->PackedKernelCalls;
    return runConvPacked(G, Inputs, Out, Config, Rt);
  }
  if (Rt.Counters)
    ++Rt.Counters->DirectKernelCalls;
  if (Inputs[0]->shape().rank() == 4)
    return runConv2d(Attrs, Inputs, Out);
  if (Inputs[0]->shape().rank() == 5)
    return runConv3d(Attrs, Inputs, Out);
  runConvGeneric(Attrs, Inputs, Out);
}
