//===- bench/ablation_fusion.cpp - design-choice ablations ----------------------------===//
//
// Ablations for four of the fusion design decisions:
//  1. Seed selection policy (paper: minimum-IRS One-to-One seeds).
//  2. Yellow (fuse-depend, cost-model-decided) fusion on/off.
//  3. Constraint threshold (max operators per block).
//  4. Intra-block data-movement folding and CSE materialization.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

int main() {
  printHeading("Ablations: fusion design choices (YOLO-V4 and GPT-2)",
               "Fused layer counts and measured CPU latency per variant.");

  for (const char *Name : {"YOLO-V4", "GPT-2"}) {
    auto Build = [&] { return buildModel(Name); };
    std::printf("-- %s --\n", Name);
    TablePrinter T({"Variant", "Fused layers", "Scratch (MB)", "CPU (ms)"});

    auto Report = [&](const char *Label, const CompileOptions &Opt) {
      CompiledModel M = cantFail(compileModel(Build(), Opt));
      T.addRow({Label, fmtCount(M.Plan.fusedLayerCount()),
                fmtMb(M.Memory.ScratchBytes), fmtMs(medianLatencyMs(M))});
    };

    CompileOptions Default;
    Report("default (min-IRS seeds)", Default);

    CompileOptions MaxIrs;
    MaxIrs.Planner.Seeds = PlannerOptions::SeedPolicy::MaxIntermediateResult;
    Report("max-IRS seeds", MaxIrs);

    CompileOptions FirstTopo;
    FirstTopo.Planner.Seeds = PlannerOptions::SeedPolicy::FirstTopological;
    Report("first-topological seeds", FirstTopo);

    CompileOptions NoYellow;
    NoYellow.Planner.EnableYellowFusion = false;
    Report("yellow fusion disabled", NoYellow);

    CompileOptions Tight;
    Tight.Planner.MaxOpsPerBlock = 8;
    Report("constraint: max 8 ops/block", Tight);

    CompileOptions Loose;
    Loose.Planner.MaxOpsPerBlock = 256;
    Loose.Planner.MaxBlockInputs = 128;
    Report("constraint: max 256 ops/block", Loose);

    CompileOptions NoFold;
    NoFold.EnableOtherOpts = false;
    Report("no data-movement folding (Other off)", NoFold);

    CompileOptions NoCse;
    NoCse.Codegen.MaterializeShared = false;
    Report("no CSE materialization (recompute)", NoCse);

    T.print();
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
