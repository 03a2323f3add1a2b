//===- runtime/ModelCompiler.h - End-to-end compilation ------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end compilation driver (paper Figure 1): graph rewriting ->
/// fusion plan exploration -> per-block fused code generation -> memory
/// planning. Every optimization is independently switchable, which is what
/// the Figure 7 breakdown and the ablation benches toggle.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_MODELCOMPILER_H
#define DNNFUSION_RUNTIME_MODELCOMPILER_H

#include "core/BlockCompiler.h"
#include "core/FusionPlanner.h"
#include "core/GraphRewriter.h"
#include "ops/KernelsGemmPacked.h"
#include "runtime/MemoryPlanner.h"
#include "runtime/ModelSignature.h"
#include "support/Retry.h"
#include "support/Status.h"

namespace dnnfusion {

/// End-to-end compiler configuration.
struct CompileOptions {
  /// Mathematical-property graph rewriting (paper §4.2; "GR" in Figure 7).
  bool EnableGraphRewriting = true;
  /// DNNFusion operator fusion (paper §4.3; "Fuse" in Figure 7). When
  /// false every operator runs as its own kernel (the OurB baseline).
  bool EnableFusion = true;
  /// Intra-block data-movement elimination + inter-block movement sinking
  /// (paper §4.4.2; "Other" in Figure 7).
  bool EnableOtherOpts = true;

  RewriteOptions Rewrite;
  PlannerOptions Planner;
  CodegenOptions Codegen;

  /// When non-empty, compileModel consults an on-disk compilation cache in
  /// this directory (created on demand): artifacts are keyed by content
  /// hash of (serialized graph, compile options, format version), a hit
  /// skips the whole planning pipeline, and a miss stores the freshly
  /// compiled model for the next process. A corrupt or version-mismatched
  /// cache entry is never an error — compilation falls back to a clean
  /// recompile and overwrites the entry. Excluded from the cache key
  /// itself. See serialize/CompilationCache.h.
  std::string CacheDir;
  /// Upper bound, in bytes, on the total artifact size kept in CacheDir;
  /// 0 = unbounded. Enforced after each store by evicting
  /// least-recently-used artifacts (cache hits refresh recency) until the
  /// directory fits. The artifact just stored is never evicted, so a
  /// single model larger than the whole budget still warm-starts its own
  /// next compile. Excluded from the cache key, like CacheDir.
  int64_t CacheMaxBytes = 0;
  /// Retry budget for transient cache I/O (a read that fails mid-flight, a
  /// store whose rename loses to filesystem pressure): each cache lookup /
  /// store is retried with jittered exponential backoff before compilation
  /// falls back to its usual cold path. Non-transient cache errors
  /// (NotFound, DataLoss) are never retried — their answer is recompile.
  /// Excluded from the cache key, like CacheDir (it cannot change the
  /// artifact, only how patiently we fetch it).
  RetryPolicy CacheRetry;
};

/// A fully compiled model, ready for execution.
struct CompiledModel {
  /// The (possibly rewritten) graph; owns all weights.
  Graph G;
  FusionPlan Plan;
  std::vector<CompiledBlock> Blocks;
  MemoryPlan Memory;
  CodegenOptions Codegen;
  /// Constant Many-to-Many weight operands packed once at compile time
  /// (referenced by CompiledStep::PrepackIndex). Never serialized: rebuilt
  /// deterministically on loadModel / cache hits, so the on-disk format is
  /// unchanged.
  std::vector<PackedOperand> Prepack;

  std::vector<NodeId> InputIds;
  /// Typed calling convention: named/shaped/dtyped inputs (InputIds order)
  /// and outputs (graph-output order). What InferenceSession validates
  /// every request against.
  ModelSignature Signature;

  // Compilation statistics.
  RewriteStats RewriteInfo;
  PlannerStats PlannerInfo;
  double RewriteMs = 0.0;
  double FusionPlanMs = 0.0;
  double CodegenMs = 0.0;
  /// Pre-computed per-block FLOPs (execution-stat source).
  std::vector<int64_t> BlockFlops;
  /// Pre-computed per-block main-arena traffic (bytes read, written).
  std::vector<int64_t> BlockBytesRead;
  std::vector<int64_t> BlockBytesWritten;
  std::vector<int64_t> BlockScratchBytes;

  int64_t totalFlops() const;
  int64_t kernelLaunches() const {
    return static_cast<int64_t>(Blocks.size());
  }

  /// True when this model came out of the on-disk compilation cache
  /// (CompileOptions::CacheDir) instead of being compiled in-process.
  /// Observable so benches/tests can assert warm-start behavior.
  bool CacheHit = false;
};

/// Compiles \p G (consumed). The analytic cost model decides every yellow
/// fusion, so the result depends on \p G and \p Options alone. The graph
/// is validated first; a malformed graph (no outputs, bad arity, shape
/// disagreement, cycle, duplicate input names) returns an InvalidGraph
/// Status instead of aborting — compilation is the trust boundary for
/// user-supplied model structure.
Expected<CompiledModel> compileModel(Graph G,
                                     const CompileOptions &Options = {});

/// Compiles \p G under an externally produced fusion plan (the framework
/// baselines of Tables 5/6: their pattern fusers decide the plan, this
/// runtime executes it). No rewriting is applied. Graph validation errors
/// are returned like compileModel's; an inconsistent *plan* over a valid
/// graph is an internal invariant violation and still aborts.
Expected<CompiledModel> compileModelWithPlan(Graph G, FusionPlan Plan,
                                             const CodegenOptions &Codegen = {});

/// Reassembles an executable CompiledModel from persisted parts:
/// trap-verifies \p Plan against \p G (a bad plan over a valid graph
/// comes back as a DataLoss Status here, not an abort — persisted plans
/// are untrusted input), then reruns the deterministic compilation tail
/// (per-block codegen, memory planning, stats, signature).
/// This is the loadModel path: everything expensive — rewrite search and
/// fusion exploration — is skipped because its result IS the plan.
///
/// \p G must already have passed Graph::validate(): the artifact
/// deserializer's Graph::fromParts validates in full, and this function
/// does not validate it again.
Expected<CompiledModel> rebuildCompiledModel(Graph G, FusionPlan Plan,
                                             const CodegenOptions &Codegen);

/// Points every constant of \p M at the storage of a bit-identical constant
/// (same shape, dtype and bytes) of \p From, so two models compiled from
/// the same weights hold one copy of them. Returns the bytes of constant
/// storage \p M now shares with \p From. Call it before \p M executes: it
/// replaces ConstValue tensors in place. Prepacked operands stay per model
/// (their panel width depends on the shapes they serve).
int64_t shareConstants(CompiledModel &M, const CompiledModel &From);

/// Merges pure data-movement blocks into their producer block so boundary
/// Transpose/Reshape operators become index arithmetic on the producer's
/// fused output expression — this reproduction's inter-block data-format
/// optimization (paper §4.4.2). Returns the number of merges.
int mergeMovementBlocks(const Graph &G, FusionPlan &Plan);

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_MODELCOMPILER_H
