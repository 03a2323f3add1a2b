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
/// implementations: the legacy naive loops and the packed register-blocked
/// engine (KernelsGemmPacked.h), selected by KernelConfig::UsePackedGemm
/// plus a per-shape gate (packedGemmPanelWidth for MatMul/Gemm). Both
/// produce bit-identical results (same per-element k-order accumulation),
/// so the toggle is purely a performance/debugging knob.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELS_H
#define DNNFUSION_OPS_KERNELS_H

#include "ops/Attributes.h"
#include "ops/OpKind.h"
#include "tensor/Tensor.h"

#include <vector>

namespace dnnfusion {

struct PackedOperand;

/// Tunable parameters of the compute-intensive kernels; the auto-tuner
/// (Figure 9b) searches PackMR and PackNR.
struct KernelConfig {
  /// Route MatMul/Gemm/Conv through the packed register-blocked engine
  /// where the per-shape gate says it wins; false = the legacy naive
  /// kernels everywhere (bit-identical either way).
  bool UsePackedGemm = true;
  /// Micro-kernel row-block height (accumulator tile rows, 1..8).
  int PackMR = 8;
  /// B-panel width (accumulator tile columns; clamped to 4/8/16/32) of
  /// Conv and of MatMul/Gemm problems with N > 8 output columns. Wide
  /// panels give the inner loop a long fixed trip count that vectorizes
  /// well; the gate (packedGemmPanelWidth) declines shapes where tail
  /// padding would waste too much of the panel. MatMul/Gemm problems with
  /// N <= 8 (a weight-stationary layer at a serving batch of 8 or less)
  /// always pack into one 8-wide panel instead.
  int PackNR = 32;

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
  /// MatMul/Gemm/Conv calls taking the packed / the naive kernel.
  int64_t PackedKernelCalls = 0;
  int64_t DirectKernelCalls = 0;
  /// Packed calls that used a compile-time prepacked operand vs. packed at
  /// run time (into scratch).
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

/// Per-family packing-scratch sizing (elements; 0 = naive path / direct).
int64_t matmulPackScratchElems(OpKind Kind, const AttrMap &Attrs,
                               const Shape &AShape, const Shape &BShape,
                               const Shape &OutShape,
                               const KernelConfig &Config);
int64_t convPackScratchElems(const AttrMap &Attrs, const Shape &XShape,
                             const Shape &WShape, const Shape &OutShape,
                             const KernelConfig &Config);

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
