//===- perfbench/src/LayerTrace.cpp - Per-layer attribution ---------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "LayerTrace.h"

#include "core/FusionPlanner.h"
#include "core/GraphRewriter.h"
#include "core/TransformerPatterns.h"
#include "runtime/MemoryPlanner.h"

using namespace dnnfusion;

namespace perfbench {

void CompileTotals::countOutcome(const CompiledModel &M) {
  OwnRewriteMs += M.RewriteMs;
  OwnPlanMs += M.FusionPlanMs;
  OwnCodegenMs += M.CodegenMs;
  RewriteApplications += M.RewriteInfo.Applications;
  FlopsBefore += M.RewriteInfo.FlopsBefore;
  FlopsAfter += M.RewriteInfo.FlopsAfter;
  LayersBefore += M.RewriteInfo.LayersBefore;
  Blocks += static_cast<int64_t>(M.Blocks.size());
  YellowAccepted += M.PlannerInfo.YellowAccepted;
  YellowConsidered +=
      M.PlannerInfo.YellowAccepted + M.PlannerInfo.YellowRejected;
}

void CompileTotals::report(Result &R, double Per) const {
  if (Compiles == 0 || Per <= 0)
    return;
  R.layer("graph.validate_ms", ValidateMs / Per, Compiles);
  R.layer("core.rewrite_ms", RewriteMs / Per, Compiles);
  R.layer("core.plan_ms", PlanMs / Per, Compiles);
  R.layer("core.codegen_ms", CodegenMs / Per, Compiles);
  R.layer("core.schedule_ms", ScheduleMs / Per, Compiles);
  R.layer("runtime.memplan_ms", MemplanMs / Per, Compiles);
  R.layer("runtime.compile_other_ms", otherMs() / Per, Compiles);
  R.layer("runtime.compile_ms", CompileMs / Per, Compiles);
  // Counts are per compile set (one set-up / one pass), so they repeat
  // exactly across runs.
  R.layer("core.rewrite_applications",
          static_cast<double>(RewriteApplications) / Per);
  R.layer("core.flops_after_frac",
          FlopsBefore ? static_cast<double>(FlopsAfter) /
                            static_cast<double>(FlopsBefore)
                      : 1.0);
  R.layer("core.blocks", static_cast<double>(Blocks) / Per);
  R.layer("core.fusion_rate",
          Blocks ? static_cast<double>(LayersBefore) /
                       static_cast<double>(Blocks)
                 : 0.0);
  R.layer("core.yellow_accept_ratio",
          YellowConsidered ? static_cast<double>(YellowAccepted) /
                                 static_cast<double>(YellowConsidered)
                           : 0.0);
}

void CompileTotals::row(Result &R, const char *What, double Per) const {
  if (Compiles == 0 || Per <= 0)
    return;
  R.row("compile (%s): compileModel %.3f ms = validate %.3f + rewrite %.3f "
        "+ plan %.3f + codegen %.3f + schedule %.3f + memplan %.3f + "
        "fingerprint %.3f + store %.3f + other %.3f",
        What, CompileMs / Per, ValidateMs / Per, RewriteMs / Per,
        PlanMs / Per, CodegenMs / Per, ScheduleMs / Per, MemplanMs / Per,
        FingerprintMs / Per, StoreMs / Per, otherMs() / Per);
  R.row("compile (%s): compileModel's own timers: rewrite %.3f, plan %.3f, "
        "codegen + prepack %.3f ms",
        What, OwnRewriteMs / Per, OwnPlanMs / Per, OwnCodegenMs / Per);
}

void replayCompilePhases(Graph G, Tracer &T, int32_t Parent,
                         CompileTotals &Tot) {
  const CompileOptions Opt; // The library defaults compileModel ran with.
  int32_t Id = T.begin("graph.validate", Parent);
  Status Valid = G.validate();
  T.end(Id);
  Tot.ValidateMs += T.ms(Id);
  if (!Valid.ok())
    return; // compileModel rejected it too; nothing further to attribute.

  Id = T.begin("core.rewrite", Parent);
  rewriteGraph(G, Opt.Rewrite);
  T.end(Id);
  Tot.RewriteMs += T.ms(Id);

  Id = T.begin("core.plan", Parent);
  FusionPlan Plan = planFusion(G, nullptr, Opt.Planner);
  mergeMovementBlocks(G, Plan);
  carveTransformerGroups(G, Plan, Opt.Codegen.FuseAttention,
                         Opt.Codegen.FuseNorm);
  T.end(Id);
  Tot.PlanMs += T.ms(Id);

  Id = T.begin("core.codegen", Parent);
  std::vector<CompiledBlock> Blocks;
  Blocks.reserve(Plan.Blocks.size());
  for (const FusionBlock &B : Plan.Blocks) {
    int32_t Block = T.begin("core.compile_block", Id);
    Blocks.push_back(compileBlock(G, B, Opt.Codegen));
    T.end(Block);
  }
  T.end(Id);
  Tot.CodegenMs += T.ms(Id);

  Id = T.begin("core.schedule", Parent);
  BlockSchedule Schedule = computeBlockSchedule(G, Plan);
  T.end(Id);
  Tot.ScheduleMs += T.ms(Id);

  Id = T.begin("runtime.memplan", Parent);
  MemoryPlan Memory =
      planMemory(G, Plan, Blocks, &Schedule, Opt.Codegen.Kernels);
  T.end(Id);
  Tot.MemplanMs += T.ms(Id);
  (void)Memory;
}

void ExecRollup::add(const CompiledModel &M, const ExecutionStats &S) {
  for (size_t BI = 0; BI < M.Blocks.size(); ++BI) {
    int C = static_cast<int>(classifyBlock(M.Blocks[BI]));
    ClassMs[C] += S.PerBlockMs[BI];
    ClassFlops[C] += static_cast<double>(M.BlockFlops[BI]);
    BlockSumMs += S.PerBlockMs[BI];
  }
  WallMs += S.WallMs;
  BytesMoved += static_cast<double>(S.MainBytesRead + S.MainBytesWritten);
  ArenaBytes += static_cast<double>(S.PeakArenaBytes);
  Engine.add(S.Engine);
  ++Runs;
}

void ExecRollup::report(Result &R, double Per) const {
  if (Runs == 0 || Per <= 0)
    return;
  const double MiB = 1024.0 * 1024.0;
  auto Class = [&](BlockClass C, const char *Ms, const char *Gflops) {
    int I = static_cast<int>(C);
    R.layer(Ms, ClassMs[I] / Per, Runs);
    if (Gflops)
      R.layer(Gflops, ClassMs[I] > 0 ? ClassFlops[I] / ClassMs[I] / 1e6 : 0.0,
              Runs);
  };
  Class(BlockClass::Conv, "ops.conv_ms", "ops.conv_gflops");
  Class(BlockClass::Attention, "ops.attention_ms", "ops.attention_gflops");
  Class(BlockClass::LayerNorm, "ops.layernorm_ms", nullptr);
  Class(BlockClass::Gemm, "ops.gemm_ms", "ops.gemm_gflops");
  Class(BlockClass::Expression, "ops.expression_ms", nullptr);
  Class(BlockClass::OtherRef, "ops.other_ms", nullptr);
  auto Count = [&](const char *Name, int64_t V) {
    R.layer(Name, static_cast<double>(V) / Per);
  };
  Count("ops.program_steps", Engine.ProgramSteps);
  Count("ops.treewalk_steps", Engine.TreeWalkSteps);
  Count("ops.packed_calls", Engine.PackedKernelCalls);
  Count("ops.direct_calls", Engine.DirectKernelCalls);
  Count("ops.epilogue_steps", Engine.GemmEpilogueSteps);
  Count("ops.avx2_calls", Engine.KernelAvx2Calls);
  Count("ops.scalar_calls", Engine.KernelScalarCalls);
  int64_t Prepack = Engine.PrepackHits + Engine.PrepackMisses;
  R.layer("ops.prepack_hit_ratio",
          Prepack ? static_cast<double>(Engine.PrepackHits) /
                        static_cast<double>(Prepack)
                  : 0.0);
  R.layer("ops.bytes_moved_mb", BytesMoved / Per / MiB);
  R.layer("runtime.block_overlap", WallMs > 0 ? BlockSumMs / WallMs : 0.0,
          Runs);
  R.layer("runtime.peak_arena_mb", ArenaBytes / Per / MiB);
}

} // namespace perfbench
