//===- bench/fig9b_compilation_time.cpp - Paper Figure 9b --------------------------------===//
//
// Compilation time split for YOLO-V4 into Fusion, Profiling, and Tuning:
//  - TVM-like: pattern fusion + a large auto-tuning budget (AutoTVM's
//    exhaustive schedule search).
//  - DNNF w/o db: mapping-type fusion + measured profiling for yellow
//    candidates + the GA tuner seeded from profiling results.
//  - DNNF w/ db: identical, but the profiling database is pre-computed so
//    yellow decisions resolve with lookups.
// Budgets are scaled down uniformly; the paper's claim is the *split*
// (Fusion invisible, Profiling collapses with the database, Tuning
// dominates), which survives scaling.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "profiler/ProfilingOracle.h"
#include "tuning/AutoTuner.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

namespace {

/// Tunes representative GEMM shapes of the model's compute kernels.
double runTuning(int Generations) {
  TuneOptions Opt;
  Opt.Generations = Generations;
  Opt.Population = 8;
  double TotalMs = 0;
  for (auto [M, N, K] : {std::tuple<int64_t, int64_t, int64_t>{64, 256, 128},
                         {128, 128, 128},
                         {32, 512, 64}}) {
    TuneResult R = tuneMatmul(M, N, K, Opt);
    TotalMs += R.WallMs;
  }
  return TotalMs;
}

} // namespace

int main() {
  printHeading("Figure 9b: compilation time split (YOLO-V4)",
               "Milliseconds per phase; budgets scaled down uniformly from "
               "the paper's hours.");
  auto Build = [] { return buildModel("YOLO-V4"); };
  TablePrinter T({"Pipeline", "Fusion (ms)", "Profiling (ms)", "Tuning (ms)",
                  "Total (ms)", "Profile DB entries"});

  // TVM-like: pattern fusion, no profiling, big tuning budget.
  {
    WallTimer FusionTimer;
    Graph G = Build();
    FusionPlan Plan = fixedPatternFusion(G, BaselineFramework::TvmLike);
    double FusionMs = FusionTimer.millis();
    double TuningMs = runTuning(/*Generations=*/12);
    (void)Plan;
    T.addRow({"TVM-like", fmtMs(FusionMs), fmtMs(0.0), fmtMs(TuningMs),
              fmtMs(FusionMs + TuningMs), "0"});
  }

  std::string DbPath = "/tmp/dnnf_profile_db_fig9b.txt";
  std::remove(DbPath.c_str());

  // DNNF without a pre-existing profiling database.
  int DbEntries = 0;
  {
    ProfileDb Db;
    ProfilingOracle Oracle(Db, /*Repeats=*/2);
    WallTimer CompileTimer;
    CompileOptions Opt;
    CompiledModel M = cantFail(compileModel(Build(), Opt, &Oracle));
    double TotalCompileMs = CompileTimer.millis();
    double ProfilingMs = Oracle.measurementMs();
    double FusionMs = TotalCompileMs - ProfilingMs;
    double TuningMs = runTuning(/*Generations=*/4);
    Db.store(DbPath);
    DbEntries = Db.size();
    T.addRow({"DNNF (w/o db)", fmtMs(FusionMs), fmtMs(ProfilingMs),
              fmtMs(TuningMs), fmtMs(FusionMs + ProfilingMs + TuningMs),
              fmtCount(DbEntries)});
  }

  // DNNF with the pre-computed database: profiling becomes lookups.
  {
    ProfileDb Db;
    Db.load(DbPath);
    ProfilingOracle Oracle(Db, /*Repeats=*/2);
    WallTimer CompileTimer;
    CompileOptions Opt;
    CompiledModel M = cantFail(compileModel(Build(), Opt, &Oracle));
    double TotalCompileMs = CompileTimer.millis();
    double ProfilingMs = Oracle.measurementMs();
    double FusionMs = TotalCompileMs - ProfilingMs;
    double TuningMs = runTuning(/*Generations=*/4);
    (void)M;
    T.addRow({"DNNF (w/ db)", fmtMs(FusionMs), fmtMs(ProfilingMs),
              fmtMs(TuningMs), fmtMs(FusionMs + ProfilingMs + TuningMs),
              fmtCount(Db.size())});
  }
  std::remove(DbPath.c_str());
  T.print();
  std::printf("\nExpected shape (paper): Fusion itself is negligible; the "
              "profiling phase collapses once the database exists; tuning "
              "dominates what remains.\n");
  return 0;
}
