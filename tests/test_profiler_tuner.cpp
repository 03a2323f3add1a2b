//===- tests/test_profiler_tuner.cpp - profile DB and measuring oracle --------------===//

#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"
#include "profiler/ProfilingOracle.h"
#include "runtime/ModelCompiler.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <unistd.h>

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

TEST(ProfileDb, AReloadedDatabaseAnswersEveryLookupOfTheSameCompile) {
  // Block signatures render attributes as "{alpha=0.1}", so a key holds
  // '=' and the stored value must come back as the measured double.
  std::string Path = formatString("/tmp/dnnf_profiledb_reload_%d.txt",
                                  static_cast<int>(getpid()));
  ProfileDb First;
  ProfilingOracle Measuring(First, /*Repeats=*/1);
  CompiledModel Cold = cantFail(
      compileModel(buildModel("YOLO-V4"), CompileOptions(), &Measuring));
  ASSERT_GT(First.size(), 0);
  ASSERT_TRUE(First.store(Path));

  ProfileDb Reloaded;
  ASSERT_TRUE(Reloaded.load(Path));
  std::remove(Path.c_str());
  EXPECT_EQ(Reloaded.size(), First.size());
  ProfilingOracle Looking(Reloaded, /*Repeats=*/1);
  CompiledModel Warm = cantFail(
      compileModel(buildModel("YOLO-V4"), CompileOptions(), &Looking));
  EXPECT_EQ(Reloaded.misses(), 0);
  EXPECT_GT(Reloaded.hits(), 0);
  EXPECT_EQ(Looking.measurementMs(), 0.0);
  EXPECT_EQ(Reloaded.size(), First.size());
  EXPECT_EQ(Warm.Plan.toString(Warm.G), Cold.Plan.toString(Cold.G));
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

} // namespace
