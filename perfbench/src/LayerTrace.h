//===- perfbench/src/LayerTrace.h - Per-layer attribution -------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns spans and public counters into per-layer metrics.
///
/// Compile: compileModel is one public call; its phases are separate
/// public functions. The traced run times compileModel itself, then
/// replays the default pipeline phase by phase on an identical copy of the
/// graph — Graph::validate, rewriteGraph, planFusion + mergeMovementBlocks
/// + carveTransformerGroups, compileBlock per block, computeBlockSchedule,
/// planMemory — each under its own span. What compileModel spends outside
/// those calls (weight prepacking, which is not public, plus the stat
/// tables and signature) is the remainder, runtime.compile_other_ms.
///
/// Execution: ExecutionContext::tryRun with per-block timing; block times
/// roll up by step kind (BlockClass), FLOPs and bytes come from the
/// compiled model's per-block tables (computed from tensor sizes, not
/// measured).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERTRACE_H
#define PERFBENCH_LAYERTRACE_H

#include "Common.h"

#include "runtime/ExecutionContext.h"

namespace perfbench {

/// Phase times and compiler outcome counts summed over every compile
/// recorded into it.
struct CompileTotals {
  int Compiles = 0;
  /// compileModel wall time (the total the phases are attributed from).
  double CompileMs = 0.0;
  double ValidateMs = 0.0;
  double RewriteMs = 0.0;
  double PlanMs = 0.0;
  double CodegenMs = 0.0;
  double ScheduleMs = 0.0;
  double MemplanMs = 0.0;
  /// Cache work inside compileModel (cold compiles with a cache only).
  double FingerprintMs = 0.0;
  double StoreMs = 0.0;
  /// compileModel's own phase timers (CompiledModel::RewriteMs,
  /// FusionPlanMs, CodegenMs — the last includes weight prepacking).
  double OwnRewriteMs = 0.0;
  double OwnPlanMs = 0.0;
  double OwnCodegenMs = 0.0;
  // Outcome counts of the real compileModel results.
  int64_t RewriteApplications = 0;
  int64_t FlopsBefore = 0;
  int64_t FlopsAfter = 0;
  int64_t LayersBefore = 0;
  int64_t Blocks = 0;
  int64_t YellowAccepted = 0;
  int64_t YellowConsidered = 0;

  /// compileModel time not covered by any replayed phase. The phases are
  /// timed on a copy, so this can dip a few percent below zero.
  double otherMs() const {
    return CompileMs - ValidateMs - RewriteMs - PlanMs - CodegenMs -
           ScheduleMs - MemplanMs - FingerprintMs - StoreMs;
  }
  /// Adds the outcome counts and own phase timers of \p M.
  void countOutcome(const dnnfusion::CompiledModel &M);
  /// Reports every compile-phase and core.* per-layer metric, times and
  /// counts divided by \p Per (set-ups or passes).
  void report(Result &R, double Per) const;
  /// One human-readable line: the total and its parts.
  void row(Result &R, const char *What, double Per) const;
};

/// Replays the default compile pipeline on \p G phase by phase under spans
/// (children of \p Parent), adding the phase times to \p Tot.
void replayCompilePhases(dnnfusion::Graph G, Tracer &T, int32_t Parent,
                         CompileTotals &Tot);

/// Per-step-kind execution roll-up over per-block-timed runs.
struct ExecRollup {
  double ClassMs[NumBlockClasses] = {};
  double ClassFlops[NumBlockClasses] = {};
  double BlockSumMs = 0.0;
  double WallMs = 0.0;
  double BytesMoved = 0.0;
  double ArenaBytes = 0.0;
  dnnfusion::EngineCounters Engine;
  int64_t Runs = 0;

  /// Adds one ExecutionContext::tryRun(..., PerBlockTiming=true) of \p M.
  void add(const dnnfusion::CompiledModel &M,
           const dnnfusion::ExecutionStats &S);
  /// Reports the ops.* metrics, runtime.block_overlap and
  /// runtime.peak_arena_mb, sums divided by \p Per (rounds or requests).
  void report(Result &R, double Per) const;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERTRACE_H
