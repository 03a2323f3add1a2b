//===- tests/test_profiler_tuner.cpp - profile DB, oracle, GA tuner -----------------===//

#include "graph/GraphBuilder.h"
#include "ops/KernelRegistry.h"
#include "profiler/ProfilingOracle.h"
#include "support/FaultInjection.h"
#include "tuning/AutoTuner.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dnnfusion;

namespace {

TEST(ProfileDb, RecordLookupAndCounters) {
  ProfileDb Db;
  double V = 0;
  EXPECT_FALSE(Db.lookup("sig", V));
  Db.record("sig", 1.25);
  ASSERT_TRUE(Db.lookup("sig", V));
  EXPECT_EQ(V, 1.25);
  EXPECT_EQ(Db.hits(), 1);
  EXPECT_EQ(Db.misses(), 1);
  EXPECT_EQ(Db.size(), 1);
}

TEST(ProfileDb, PersistenceRoundTrip) {
  std::string Path = "/tmp/dnnf_profiledb_test.txt";
  ProfileDb Db;
  Db.record("Conv[1x8x4x4]+Relu[1x8x4x4]", 0.125);
  Db.record("MatMul[4x4]", 2.5);
  ASSERT_TRUE(Db.store(Path));
  ProfileDb Loaded;
  ASSERT_TRUE(Loaded.load(Path));
  double V = 0;
  ASSERT_TRUE(Loaded.lookup("MatMul[4x4]", V));
  EXPECT_EQ(V, 2.5);
  EXPECT_EQ(Loaded.size(), 2);
  std::remove(Path.c_str());
}

TEST(ProfilingOracle, MeasuresAndThenHitsTheDatabase) {
  GraphBuilder B(1);
  NodeId X = B.input(Shape({32, 32}));
  NodeId A = B.relu(X);
  NodeId C = B.sigmoid(A);
  B.markOutput(C);
  const Graph &G = B.graph();

  ProfileDb Db;
  ProfilingOracle Oracle(Db, /*Repeats=*/2);
  double First = Oracle.blockLatencyMs(G, {A, C});
  EXPECT_GT(First, 0.0);
  EXPECT_EQ(Db.size(), 1);
  int MissesAfterFirst = Db.misses();
  double Second = Oracle.blockLatencyMs(G, {A, C});
  EXPECT_EQ(Second, First);           // Cached value returned verbatim.
  EXPECT_EQ(Db.misses(), MissesAfterFirst); // No re-measurement.
}

TEST(ProfilingOracle, MeasuredBlockWithHeavyOpRuns) {
  GraphBuilder B(2);
  NodeId X = B.input(Shape({8, 16}));
  NodeId M = B.op(OpKind::MatMul, {X, B.weight(Shape({16, 8}))});
  NodeId R = B.relu(M);
  B.markOutput(R);
  ProfileDb Db;
  ProfilingOracle Oracle(Db);
  EXPECT_GT(Oracle.blockLatencyMs(B.graph(), {M, R}), 0.0);
}

TEST(AutoTuner, FindsConfigNoWorseThanBaseline) {
  TuneOptions Opt;
  Opt.Population = 6;
  Opt.Generations = 3;
  TuneResult R = tuneMatmul(64, 64, 64, Opt);
  EXPECT_GT(R.Evaluations, Opt.Population);
  // The default config is in the initial population, so the winner can
  // never be slower (modulo timing noise, hence the 25% slack).
  EXPECT_LE(R.BestMs, R.BaselineMs * 1.25);
  EXPECT_GT(R.WallMs, 0.0);
}

TEST(AutoTuner, TimesTheTierProductionDispatchesAt) {
  if (effectiveKernelLevel(KernelConfig()) != KernelLevel::Avx2)
    GTEST_SKIP() << "default dispatch does not resolve to AVX2 here";
  // Armed at probability 0 the kernel.dispatch point never fires, but it
  // counts every SIMD dispatch check; a scalar-timed search makes none.
  FaultInjection &FI = FaultInjection::instance();
  FI.reset();
  FaultSpec Never;
  Never.Probability = 0.0;
  FI.arm(faultpoints::KernelDispatch, Never);
  TuneOptions Opt;
  Opt.Population = 2;
  Opt.Generations = 1;
  tuneMatmul(16, 16, 16, Opt);
  int64_t Checks = FI.pointStats(faultpoints::KernelDispatch).Checks;
  FI.reset();
  EXPECT_GT(Checks, 0);
}

TEST(AutoTuner, DeterministicSearchTrajectory) {
  TuneOptions Opt;
  Opt.Population = 4;
  Opt.Generations = 2;
  Opt.Seed = 99;
  TuneResult A = tuneMatmul(32, 32, 32, Opt);
  TuneResult B = tuneMatmul(32, 32, 32, Opt);
  // Timing differs run to run, but the sampled configurations do not.
  EXPECT_EQ(A.Evaluations, B.Evaluations);
}

} // namespace
