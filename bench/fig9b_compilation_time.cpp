//===- bench/fig9b_compilation_time.cpp - Paper Figure 9b --------------------------------===//
//
// Compilation time split for YOLO-V4 into Fusion and Profiling:
//  - TVM-like: pattern fusion alone.
//  - DNNF w/o db: mapping-type fusion + measured profiling for yellow
//    candidates, which fills the profiling database.
//  - DNNF w/ db: identical, but the database is reloaded from the first
//    run's file, so every yellow decision resolves with a lookup.
// The paper's third phase, tuning, has no counterpart here: the packed
// GEMM engine's tile geometry is fixed (ops/KernelsGemmPacked.h), so there
// is nothing to search. The paper's claim that survives is the split:
// Fusion is cheap, and Profiling collapses once the database exists.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "profiler/ProfilingOracle.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

int main() {
  printHeading("Figure 9b: compilation time split (YOLO-V4)",
               "Milliseconds per phase; no tuning phase, as the tile "
               "geometry is fixed.");
  auto Build = [] { return buildModel("YOLO-V4"); };
  TablePrinter T({"Pipeline", "Fusion (ms)", "Profiling (ms)", "Total (ms)",
                  "Profile DB entries"});

  // TVM-like: pattern fusion, no profiling.
  {
    WallTimer FusionTimer;
    Graph G = Build();
    FusionPlan Plan = fixedPatternFusion(G, BaselineFramework::TvmLike);
    double FusionMs = FusionTimer.millis();
    (void)Plan;
    T.addRow({"TVM-like", fmtMs(FusionMs), fmtMs(0.0), fmtMs(FusionMs), "0"});
  }

  std::string DbPath = "/tmp/dnnf_profile_db_fig9b.txt";
  std::remove(DbPath.c_str());

  // DNNF first without, then with the database the first run stored.
  for (bool WithDb : {false, true}) {
    ProfileDb Db;
    if (WithDb)
      Db.load(DbPath);
    ProfilingOracle Oracle(Db, /*Repeats=*/2);
    WallTimer CompileTimer;
    CompiledModel M =
        cantFail(compileModel(Build(), CompileOptions(), &Oracle));
    double TotalCompileMs = CompileTimer.millis();
    double ProfilingMs = Oracle.measurementMs();
    double FusionMs = TotalCompileMs - ProfilingMs;
    (void)M;
    if (!WithDb)
      Db.store(DbPath);
    T.addRow({WithDb ? "DNNF (w/ db)" : "DNNF (w/o db)", fmtMs(FusionMs),
              fmtMs(ProfilingMs), fmtMs(TotalCompileMs), fmtCount(Db.size())});
  }
  std::remove(DbPath.c_str());
  T.print();
  std::printf("\nExpected shape (paper): Fusion itself is cheap, and the "
              "profiling phase collapses once the database exists.\n");
  return 0;
}
