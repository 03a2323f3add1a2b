//===- core/BlockCompiler.h - Fusion code generation --------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fused code generation (paper §4.4): compiles a FusionBlock into an
/// executable CompiledBlock. A block becomes a short sequence of steps
/// executed as one kernel launch:
///
///  - Expression steps run a data-flow tree (elementwise chains with all
///    data-movement operators folded into index arithmetic), lowered to a
///    DftProgram tape, chunk-wise into an output or scratch buffer — true
///    loop fusion, no intermediate materialization.
///  - RefKernel steps run one Many-to-Many operator (Conv/GEMM/Reduce/...)
///    with its optimized kernel. Producers fused into the block are staged
///    into block-local scratch first (the paper's IR_removable = false
///    case), so the block still launches once and its intermediates never
///    reach the main tensor arena.
///
/// Common subexpressions (values with multiple consumers inside the block)
/// are materialized once into scratch, mirroring the common-subtree
/// identification of Figure 4.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_BLOCKCOMPILER_H
#define DNNFUSION_CORE_BLOCKCOMPILER_H

#include "core/Dft.h"
#include "core/DftProgram.h"
#include "core/FusionPlan.h"
#include "ops/Kernels.h"

namespace dnnfusion {

/// Code-generation toggles (Figure 7's "Other" optimizations and the
/// ablation benches).
struct CodegenOptions {
  /// Fold Reorganize/Shuffle/Slice/Expand/Gather into index chains
  /// (intra-block data-movement optimization). When false these operators
  /// materialize copies even inside fusion blocks.
  bool FoldDataMovement = true;
  /// Materialize block-internal values with multiple consumers once (CSE);
  /// when false shared subtrees are recomputed per consumer.
  bool MaterializeShared = true;
  /// Elements per evaluation chunk (<= DftMaxChunk).
  int ChunkSize = 256;
  /// Compile fusion blocks that exactly cover a matched attention
  /// subgraph (QK^T -> scale -> mask -> Softmax -> V) into one
  /// single-pass online-softmax step (ops/KernelsAttention). The online
  /// rescaling reorders the softmax accumulation, so this is the repo's
  /// one deliberate bit-identity relaxation: fused-vs-unfused outputs
  /// agree to ~1e-6 relative, enforced under tolerance by the fuzz matrix
  /// and the zoo tests. Also gates the plan-level carving of attention
  /// groups in compileModel; a plan carved with the toggle on still
  /// compiles (to ordinary unfused steps) when it is off.
  bool FuseAttention = true;
  /// Compile fusion blocks exactly covering a decomposed LayerNorm
  /// (mean/var/normalize/affine, as built by graph/GraphBuilder) into one
  /// three-pass fused step. Same scalar operations in the same order as
  /// the decomposed expression evaluation — bit-identical. Gates the
  /// plan-level carving of layernorm groups like FuseAttention.
  bool FuseNorm = true;
  /// Tunables of the Many-to-Many kernels executed by RefKernel steps
  /// (packed-GEMM engine switches and blocking parameters).
  KernelConfig Kernels;
};

/// One step of a compiled block.
struct CompiledStep {
  enum class Kind {
    RefKernel,
    Expression,
    /// Single-pass online-softmax attention over InputSlots {Q, Kt, V
    /// [, additive mask]} (ops/KernelsAttention). Attrs: "scale" (float),
    /// "causal" (int 0/1).
    FusedAttention,
    /// Fused LayerNorm over InputSlots {X, Gamma, Beta}. Attrs: "epsilon"
    /// (float).
    FusedLayerNorm,
  };
  Kind K = Kind::Expression;
  /// Graph node this step computes.
  NodeId Origin = InvalidNodeId;

  // RefKernel / FusedAttention / FusedLayerNorm.
  OpKind Op = OpKind::Identity;
  AttrMap Attrs;
  std::vector<int> InputSlots;
  std::vector<Shape> InputShapes;

  // Expression.
  /// The expression tree (CodeEmitter source).
  DftTree Tree;
  /// The tree lowered to a flat instruction tape — what executeBlock runs.
  DftProgram Program;

  /// Index into CompiledModel::Prepack when this RefKernel step's packed
  /// operand is a constant weight packed at model-compile time; -1
  /// otherwise. Assigned by the model compiler, rebuilt on loadModel.
  int PrepackIndex = -1;

  /// Kernel tier resolved for this step at compileBlock time
  /// (KernelLevel as int8_t) — the audit stamp CodeEmitter prints and the
  /// cache-redispatch tests inspect. Informational: executeBlock
  /// re-resolves from the live CodegenOptions so the knob stays flippable
  /// per execution, and blocks are never serialized, so a loaded artifact
  /// re-stamps (and re-dispatches) on the loading host's features.
  int8_t DispatchLevel = 0;

  int OutputSlot = -1;
  Shape OutShape;
};

/// An executable fused kernel.
struct CompiledBlock {
  /// External producer node per external slot; slot i = i.
  std::vector<NodeId> ExternalInputs;

  /// Block-local buffers (materialized members and staging temporaries);
  /// local j occupies slot ExternalInputs.size() + j.
  struct LocalBuffer {
    NodeId Node = InvalidNodeId; ///< Graph node whose value this holds.
    Shape Sh;
    /// True when this buffer is a block output (allocated in the model
    /// arena by the memory planner); false = transient scratch.
    bool IsBlockOutput = false;
  };
  std::vector<LocalBuffer> Locals;

  std::vector<CompiledStep> Steps;

  int numSlots() const {
    return static_cast<int>(ExternalInputs.size() + Locals.size());
  }
  /// Bytes of transient scratch the block needs.
  int64_t scratchBytes() const;
  /// Total fused operators evaluated inside expression steps.
  int fusedExpressionOps() const;
};

/// Compiles \p Block of \p G.
CompiledBlock compileBlock(const Graph &G, const FusionBlock &Block,
                           const CodegenOptions &Options = {});

/// Buffer bindings for one block execution.
struct BlockIo {
  /// Pointer per external input slot (same order as ExternalInputs).
  std::vector<const float *> Externals;
  /// Pointer per local buffer (same order as Locals).
  std::vector<float *> LocalPtrs;
};

/// Per-execution runtime resources for one block: the model's prepacked
/// constant weights, the context's packing scratch, and the
/// engine-path counters to fill. All optional — a default BlockRuntime
/// executes correctly (kernels fall back to heap packing, counters are
/// skipped).
struct BlockRuntime {
  const std::vector<PackedOperand> *Prepack = nullptr;
  float *PackScratch = nullptr;
  int64_t PackScratchElems = 0;
  EngineCounters *Counters = nullptr;
};

/// Executes \p Block with \p Io. Runs steps sequentially; each step is
/// internally parallel. Expression steps run their compiled program;
/// RefKernel steps receive Options.Kernels plus the per-call resources
/// from \p Rt.
void executeBlock(const CompiledBlock &Block, const BlockIo &Io,
                  const CodegenOptions &Options = {},
                  const BlockRuntime &Rt = {});

} // namespace dnnfusion

#endif // DNNFUSION_CORE_BLOCKCOMPILER_H
