//===- ops/Kernels.h - Reference operator kernels ----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The materializing reference kernels: one kernel invocation per operator,
/// each reading whole input tensors and writing a whole output tensor.
/// This is the substrate the no-fusion baseline (OurB) executes on and the
/// oracle the fused evaluator is tested against.
///
/// The compute-intensive Many-to-Many kernels (MatMul/Gemm/Conv) carry two
/// implementations: the naive loops and the packed register-blocked engine
/// (KernelsGemmPacked.h), selected by KernelConfig::UsePackedGemm plus a
/// per-shape gate (gemmRoute for MatMul/Gemm). Both produce bit-identical
/// results (same per-element k-order accumulation), so the toggle is
/// purely a performance/debugging knob. Each Many-to-Many problem's
/// geometry is derived once: a Window for Conv and pooling (below), a
/// GemmDims for MatMul and Gemm (KernelsGemmPacked.h).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELS_H
#define DNNFUSION_OPS_KERNELS_H

#include "ops/Attributes.h"
#include "ops/OpKind.h"
#include "tensor/Tensor.h"

#include <type_traits>
#include <vector>

namespace dnnfusion {

struct PackedOperand;

/// Execution-engine settings of the compute-intensive kernels: which
/// engine runs them and at which dispatch tier. The packed engine's tile
/// geometry is fixed (KernelsGemmPacked.h).
struct KernelConfig {
  /// Route MatMul/Gemm/Conv through the packed register-blocked engine
  /// where the per-shape gate says it wins; false = the legacy naive
  /// kernels everywhere (bit-identical either way).
  bool UsePackedGemm = true;

  /// Forced kernel dispatch tier: -1 (ForceKernelAuto) resolves
  /// automatically (env hook, then avx2 where the host supports it);
  /// 0 = scalar, 1 = avx2 (see KernelRegistry.h). A forced avx2 the host
  /// cannot execute runs scalar. Like every engine knob this is excluded
  /// from the CompilationCache key and never serialized — cached artifacts
  /// re-resolve on the loading host.
  int ForceKernelLevel = -1;
};

/// Execution-engine path counters: which implementation each fused-block
/// step and each Many-to-Many kernel call actually took, and whether the
/// packed path found its weights prepacked. Accumulated over a run's blocks
/// into ExecutionStats, surfaced per request through SessionMetrics.
struct EngineCounters {
  /// Expression steps evaluated by the compiled DFT program.
  int64_t ProgramSteps = 0;
  /// Always 0: the tree-walk interpreter it counted is gone. Kept so
  /// perfbench's ops.treewalk_steps metric, which reads it, still builds.
  int64_t TreeWalkSteps = 0;
  /// MatMul/Gemm/Conv calls taking a packed-engine route (a panel route or
  /// the narrow-rows route, at whichever tier) / the naive kernel.
  int64_t PackedKernelCalls = 0;
  int64_t DirectKernelCalls = 0;
  /// Panel-route calls that used a compile-time prepacked operand vs.
  /// packed at run time (into scratch). The narrow-rows route packs
  /// nothing and counts neither.
  int64_t PrepackHits = 0;
  int64_t PrepackMisses = 0;
  /// Always 0: GEMM epilogue folding, which it counted, is gone. Kept so
  /// perfbench's ops.epilogue_steps metric, which reads it, still builds.
  int64_t GemmEpilogueSteps = 0;
  /// Fused-attention / fused-layernorm steps executed (one per carved
  /// attention or layernorm subgraph per inference).
  int64_t FusedAttentionSteps = 0;
  int64_t FusedLayerNormSteps = 0;
  /// Dispatched kernel invocations by resolved tier (packed GEMM/conv
  /// calls and fused-attention steps, counted at the level actually
  /// selected after host-feature clamping) — the audit trail proving which
  /// tier a run executed.
  int64_t KernelScalarCalls = 0;
  int64_t KernelAvx2Calls = 0;

  void add(const EngineCounters &O) {
    ProgramSteps += O.ProgramSteps;
    TreeWalkSteps += O.TreeWalkSteps;
    PackedKernelCalls += O.PackedKernelCalls;
    DirectKernelCalls += O.DirectKernelCalls;
    PrepackHits += O.PrepackHits;
    PrepackMisses += O.PrepackMisses;
    GemmEpilogueSteps += O.GemmEpilogueSteps;
    FusedAttentionSteps += O.FusedAttentionSteps;
    FusedLayerNormSteps += O.FusedLayerNormSteps;
    KernelScalarCalls += O.KernelScalarCalls;
    KernelAvx2Calls += O.KernelAvx2Calls;
  }
};

/// Optional per-call runtime resources for a kernel invocation. All fields
/// are advisory: a kernel missing its prepack or scratch falls back to
/// packing on the fly (heap), never to wrong results.
struct KernelRuntime {
  /// Prepacked weight operand for this call (the step's PrepackIndex
  /// resolved against the model's prepack store), or null.
  const PackedOperand *Prepacked = nullptr;
  /// The context's packing scratch (MemoryPlan::PackScratchBytes
  /// elements).
  float *PackScratch = nullptr;
  int64_t PackScratchElems = 0;
  /// Engine-path counters to increment, or null.
  EngineCounters *Counters = nullptr;
};

/// Executes \p Kind on \p Inputs, writing \p Out (pre-allocated with the
/// inferred shape). Aborts on malformed inputs; shapes are assumed checked
/// by the graph verifier.
void runRefKernel(OpKind Kind, const AttrMap &Attrs,
                  const std::vector<const Tensor *> &Inputs, Tensor &Out,
                  const KernelConfig &Config = KernelConfig(),
                  const KernelRuntime &Rt = KernelRuntime());

namespace detail {
// Family implementations (one translation unit each).
void runElementwiseKernel(OpKind Kind, const AttrMap &Attrs,
                          const std::vector<const Tensor *> &Inputs,
                          Tensor &Out);
void runDataMovementKernel(OpKind Kind, const AttrMap &Attrs,
                           const std::vector<const Tensor *> &Inputs,
                           Tensor &Out);
void runMatMulKernel(OpKind Kind, const AttrMap &Attrs,
                     const std::vector<const Tensor *> &Inputs, Tensor &Out,
                     const KernelConfig &Config,
                     const KernelRuntime &Rt = KernelRuntime());
void runConvKernel(OpKind Kind, const AttrMap &Attrs,
                   const std::vector<const Tensor *> &Inputs, Tensor &Out,
                   const KernelConfig &Config = KernelConfig(),
                   const KernelRuntime &Rt = KernelRuntime());
void runPoolReduceKernel(OpKind Kind, const AttrMap &Attrs,
                         const std::vector<const Tensor *> &Inputs,
                         Tensor &Out);

/// Conv's packing-scratch elements (0 = the direct path).
int64_t convPackScratchElems(const AttrMap &Attrs, const Shape &XShape,
                             const Shape &WShape, const Shape &OutShape,
                             const KernelConfig &Config);

/// The sliding window of a Conv, MaxPool or AveragePool: the one geometry
/// the direct conv loop, the pooling loop and the im2col packer read. 1 to
/// 3 spatial dims are right-aligned into 3-entry arrays, so a 1-D or 2-D
/// window is a 3-D one whose leading dims have extent 1, stride 1, pad 0
/// and dilation 1.
struct Window {
  int Sp = 0;           ///< Spatial dims in use (1..3), the last Sp entries.
  int64_t N = 0, C = 0; ///< Images and input channels.
  int64_t In[3] = {1, 1, 1}, Out[3] = {1, 1, 1}, Kernel[3] = {1, 1, 1};
  int64_t Stride[3] = {1, 1, 1}, Pad[3] = {0, 0, 0}, Dil[3] = {1, 1, 1};
  int64_t InSpatial = 1, OutSpatial = 1, KernelN = 1; ///< Extent products.
};

/// The window of input \p X producing \p Out under \p Kernel extents
/// (a Conv's weight dims 2.., a pool's "kernel" attribute) and the
/// strides/pads/dilations attributes.
Window window(const AttrMap &Attrs, const Shape &X, const Shape &Out,
              const std::vector<int64_t> &Kernel);

/// The taps of window dim D at one output index that land inside the
/// input: kernel indices [Begin, End), tap k reading input index
/// First + k * Dil[D].
struct TapSpan {
  int64_t First = 0, Begin = 0, End = 1;
};

inline TapSpan tapSpan(const Window &W, int D, int64_t O) {
  TapSpan S{O * W.Stride[D] - W.Pad[D], 0, W.Kernel[D]};
  while (S.Begin < S.End && S.First + S.Begin * W.Dil[D] < 0)
    ++S.Begin;
  while (S.End > S.Begin && S.First + (S.End - 1) * W.Dil[D] >= W.In[D])
    --S.End;
  return S;
}

/// Outputs the direct window loop computes together along the last dim:
/// one accumulator each, so their add chains overlap.
inline constexpr int WindowLanes = 8;

/// The direct window loop over one output plane, stored row-major from
/// \p Y. Consecutive outputs of a row whose taps are all in bounds come
/// WindowLanes at a time, the rest one at a time:
/// Run(std::integral_constant<int, Lanes>, Out, SD, SH, SW) computes
/// Out[0..Lanes), where SD/SH/SW are the first output's TapSpans and
/// output j reads the last dim j * Stride[2] further along. Depth = false
/// compiles the depth dim out (1-D and 2-D windows).
template <bool Depth, typename RunFn>
void forEachWindowRun(const Window &W, float *Y, RunFn &&Run) {
  for (int64_t Od = 0; Od < (Depth ? W.Out[0] : 1); ++Od) {
    TapSpan SD = Depth ? tapSpan(W, 0, Od) : TapSpan();
    for (int64_t Oh = 0; Oh < W.Out[1]; ++Oh) {
      TapSpan SH = tapSpan(W, 1, Oh);
      for (int64_t Ow = 0; Ow < W.Out[2];) {
        TapSpan SW = tapSpan(W, 2, Ow);
        if (Ow + WindowLanes <= W.Out[2] && SW.Begin == 0 &&
            tapSpan(W, 2, Ow + WindowLanes - 1).End == W.Kernel[2]) {
          Run(std::integral_constant<int, WindowLanes>(), Y, SD, SH, SW);
          Y += WindowLanes;
          Ow += WindowLanes;
        } else {
          Run(std::integral_constant<int, 1>(), Y, SD, SH, SW);
          ++Y;
          ++Ow;
        }
      }
    }
  }
}

/// Calls Tap(input offset, kernel offset) for each in-bounds tap of the
/// output whose spans are SD, SH, SW, kernel coordinates ascending: taps
/// in the padding are skipped.
template <bool Depth, typename TapFn>
void forEachWindowTap(const Window &W, const TapSpan &SD, const TapSpan &SH,
                      const TapSpan &SW, TapFn &&Tap) {
  for (int64_t Kd = SD.Begin; Kd < SD.End; ++Kd) {
    int64_t Id = Depth ? SD.First + Kd * W.Dil[0] : 0;
    for (int64_t Kh = SH.Begin; Kh < SH.End; ++Kh) {
      int64_t XRow = (Id * W.In[1] + SH.First + Kh * W.Dil[1]) * W.In[2] +
                     SW.First;
      int64_t KRow = (Kd * W.Kernel[1] + Kh) * W.Kernel[2];
      for (int64_t Kw = SW.Begin; Kw < SW.End; ++Kw)
        Tap(XRow + Kw * W.Dil[2], KRow + Kw);
    }
  }
}

/// Multiply-adds one slice of a MatMul/Gemm row loop must hold before the
/// loop is worth splitting across the thread pool. Chosen by a sweep on a
/// 4-vCPU AVX2 host: 2^16 to 2^20 all split the serving MLP's 1024-row
/// layers equally well; 2^18 and below also split the zoo transformers'
/// 40- and 48-row GEMMs, which then run up to 5% slower.
inline constexpr int64_t GemmMacsPerSlice = int64_t(1) << 19;

/// The parallelFor grain of a MatMul/Gemm row loop: the rows whose
/// multiply-adds reach GemmMacsPerSlice, at least one. A row costs
/// PaddedN * K multiply-adds, where PaddedN is \p N rounded up to the
/// panel width \p NR the packed kernel computes in whole (NR = 0: the
/// naive loops and the narrow-rows tile, which pad nothing). The grain
/// depends only on the shape, so slice boundaries depend only on the
/// shape and the pool size.
int64_t gemmRowGrain(int64_t N, int64_t K, int NR);

/// Packing-scratch elements a MatMul/Gemm/Conv step may need at run time
/// under \p Config (0 when the call would take the naive path or its
/// packed operand is known-constant — \p WeightIsConstant — and therefore
/// served by the prepack store). The memory planner sizes the context's
/// pack scratch from the max over all steps.
int64_t packScratchElemsForStep(OpKind Kind, const AttrMap &Attrs,
                                const std::vector<Shape> &InputShapes,
                                const Shape &OutShape,
                                const KernelConfig &Config,
                                bool WeightIsConstant);
} // namespace detail

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELS_H
