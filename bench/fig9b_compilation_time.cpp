//===- bench/fig9b_compilation_time.cpp - Paper Figure 9b --------------------------------===//
//
// Compilation time split for YOLO-V4:
//  - TVM-like: pattern fusion alone.
//  - DNNF: compileModel's own phase timers (graph rewriting, fusion
//    planning, per-block code generation with weight prepacking); its
//    total is compileModel's wall time, which also covers validation and
//    memory planning.
// The paper's second phase, profiling, has no counterpart here: the
// analytic cost model decides every yellow fusion, because measured
// blocks run in microseconds and timer noise made profiled plans differ
// between two cold compiles of one model.
// The paper's third phase, tuning, has no counterpart here: the packed
// GEMM engine's tile geometry is fixed (ops/KernelsGemmPacked.h), so there
// is nothing to search. The paper's claim that survives is that fusion
// itself is cheap.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

int main() {
  printHeading("Figure 9b: compilation time split (YOLO-V4)",
               "Milliseconds per phase; no profiling phase, as the cost "
               "model decides yellow fusions, and no tuning phase, as the "
               "tile geometry is fixed.");
  auto Build = [] { return buildModel("YOLO-V4"); };
  TablePrinter T({"Pipeline", "Rewrite (ms)", "Fusion (ms)", "Codegen (ms)",
                  "Total (ms)"});

  // TVM-like: pattern fusion, nothing else.
  {
    Graph G = Build();
    WallTimer FusionTimer;
    FusionPlan Plan = fixedPatternFusion(G, BaselineFramework::TvmLike);
    double FusionMs = FusionTimer.millis();
    (void)Plan;
    T.addRow({"TVM-like", "-", fmtMs(FusionMs), "-", fmtMs(FusionMs)});
  }

  // DNNF: the default compile, split by compileModel's own timers.
  {
    Graph G = Build();
    WallTimer CompileTimer;
    CompiledModel M = cantFail(compileModel(std::move(G)));
    double TotalMs = CompileTimer.millis();
    T.addRow({"DNNF", fmtMs(M.RewriteMs), fmtMs(M.FusionPlanMs),
              fmtMs(M.CodegenMs), fmtMs(TotalMs)});
  }
  T.print();
  std::printf("\nExpected shape (paper): fusion itself is cheap, a small "
              "share of the whole compile.\n");
  return 0;
}
