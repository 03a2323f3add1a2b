//===- tests/test_graph_fuzz.cpp - differential fuzzing sweep ------------------===//
//
// Drives the differential-testing subsystem (tests/GraphFuzz.{h,cpp}):
//
//  * self-tests of the generator (determinism, validity, bounds, full
//    OpKind coverage across the sweep's seed range),
//  * self-tests of the shrinker against synthetic failure predicates, and
//  * the main sweep: >= 200 seeded random graphs, each run through the
//    reference pipeline and the full CompileOptions matrix (the 8
//    configurations of defaultConfigMatrix); any divergence is shrunk and
//    reported as compilable GraphBuilder code.
//
//===----------------------------------------------------------------------===//

#include "GraphFuzz.h"

#include "graph/GraphBuilder.h"
#include "ops/OpSchema.h"

#include <gtest/gtest.h>

#include <set>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

/// Seed count of the main differential sweep (acceptance floor is 200).
constexpr int NumSweepSeeds = 220;

uint64_t sweepSeed(int Index) {
  return static_cast<uint64_t>(Index) * 2654435761u + 101;
}

//===----------------------------------------------------------------------===//
// Generator self-tests
//===----------------------------------------------------------------------===//

TEST(GraphFuzzGenerator, DeterministicForSeed) {
  for (uint64_t Seed : {1ull, 42ull, 999ull}) {
    FuzzSpec A = generateSpec(Seed);
    FuzzSpec B = generateSpec(Seed);
    ASSERT_EQ(A.Nodes.size(), B.Nodes.size());
    for (size_t I = 0; I < A.Nodes.size(); ++I) {
      EXPECT_EQ(A.Nodes[I].Kind, B.Nodes[I].Kind);
      EXPECT_EQ(A.Nodes[I].Inputs, B.Nodes[I].Inputs);
      EXPECT_EQ(A.Nodes[I].OutShape, B.Nodes[I].OutShape);
      EXPECT_EQ(A.Nodes[I].IsOutput, B.Nodes[I].IsOutput);
    }
    // The materialized graphs (weights included) match bit-for-bit, so a
    // seed alone is a complete repro.
    EXPECT_EQ(buildGraph(A).toString(), buildGraph(B).toString());
  }
}

TEST(GraphFuzzGenerator, GraphsVerifyAndStayBounded) {
  FuzzConfig Cfg;
  for (int I = 0; I < 50; ++I) {
    FuzzSpec Spec = generateSpec(sweepSeed(I), Cfg);
    EXPECT_GE(Spec.numOps(), 1) << "seed " << sweepSeed(I);
    EXPECT_GE(Spec.numOutputs(), 1) << "seed " << sweepSeed(I);
    Graph G = buildGraph(Spec);
    G.verify();
    for (int Id = 0; Id < G.numNodes(); ++Id)
      EXPECT_LE(G.node(Id).OutShape.numElements(), Cfg.MaxElementsPerNode)
          << "seed " << sweepSeed(I) << " node " << Id;
  }
}

TEST(GraphFuzzGenerator, CoversAllOpKindsAcrossSweep) {
  std::set<int> Seen;
  for (int I = 0; I < NumSweepSeeds; ++I) {
    FuzzSpec Spec = generateSpec(sweepSeed(I));
    for (const FuzzNode &N : Spec.Nodes)
      Seen.insert(static_cast<int>(N.Kind));
  }
  std::vector<std::string> Missing;
  for (int K = 0; K < NumOpKinds; ++K)
    if (!Seen.count(K))
      Missing.push_back(opKindName(opKindFromIndex(K)));
  EXPECT_TRUE(Missing.empty())
      << "operator kinds never generated across " << NumSweepSeeds
      << " seeds:" << [&] {
           std::string S;
           for (const std::string &M : Missing)
             S += " " + M;
           return S;
         }();
}

TEST(GraphFuzzGenerator, BuilderCodeIsPrintable) {
  FuzzSpec Spec = generateSpec(7);
  std::string Code = toBuilderCode(Spec);
  EXPECT_NE(Code.find("GraphBuilder B(7);"), std::string::npos);
  EXPECT_NE(Code.find("B.input("), std::string::npos);
  EXPECT_NE(Code.find("B.markOutput("), std::string::npos);
  // Every node appears as a declaration.
  for (size_t I = 0; I < Spec.Nodes.size(); ++I)
    EXPECT_NE(Code.find("N" + std::to_string(I) + " "), std::string::npos)
        << Code;
}

//===----------------------------------------------------------------------===//
// Shrinker self-tests
//===----------------------------------------------------------------------===//

/// Hand-built 12-node spec with a Softmax buried mid-chain surrounded by
/// irrelevant structure on both sides plus a second, unrelated output.
FuzzSpec buriedSoftmaxSpec() {
  FuzzSpec S;
  S.Seed = 1234;
  auto Leaf = [&](OpKind K, Shape Sh) {
    FuzzNode N;
    N.Kind = K;
    N.LeafShape = Sh;
    N.OutShape = std::move(Sh);
    S.Nodes.push_back(std::move(N));
    return static_cast<int>(S.Nodes.size()) - 1;
  };
  auto Op = [&](OpKind K, std::vector<int> In, AttrMap A = {}) {
    FuzzNode N;
    N.Kind = K;
    std::vector<Shape> InShapes;
    for (int I : In)
      InShapes.push_back(S.Nodes[static_cast<size_t>(I)].OutShape);
    N.OutShape = inferShape(K, A, InShapes);
    N.Inputs = std::move(In);
    N.Attrs = std::move(A);
    S.Nodes.push_back(std::move(N));
    return static_cast<int>(S.Nodes.size()) - 1;
  };
  int X = Leaf(OpKind::Input, Shape({2, 4, 6}));
  int Y = Leaf(OpKind::Input, Shape({2, 4, 6}));
  int A = Op(OpKind::Relu, {X});
  int B = Op(OpKind::Add, {A, Y});
  int C = Op(OpKind::Tanh, {B});
  int D = Op(OpKind::Softmax, {C}, AttrMap().set("axis", int64_t(-1)));
  int E = Op(OpKind::Sigmoid, {D});
  int F = Op(OpKind::Mul, {E, Y});
  S.Nodes[static_cast<size_t>(Op(OpKind::Abs, {F}))].IsOutput = true;
  // Unrelated second output chain.
  int U = Op(OpKind::Neg, {X});
  S.Nodes[static_cast<size_t>(Op(OpKind::Exp, {Op(OpKind::Tanh, {U})}))]
      .IsOutput = true;
  return S;
}

TEST(GraphFuzzShrinker, MinimizesAroundSyntheticPredicate) {
  FuzzSpec Spec = buriedSoftmaxSpec();
  ASSERT_TRUE(Spec.contains(OpKind::Softmax));
  int Before = Spec.numOps();

  FailPredicate HasSoftmax = [](const FuzzSpec &S) {
    return S.contains(OpKind::Softmax);
  };
  FuzzSpec Min = shrinkSpec(Spec, HasSoftmax);

  // The witness survives, everything irrelevant dies: the unrelated output
  // chain, the post-Softmax tail, and the pre-Softmax cone.
  EXPECT_TRUE(Min.contains(OpKind::Softmax));
  EXPECT_EQ(Min.numOutputs(), 1);
  EXPECT_LT(Min.numOps(), Before);
  EXPECT_LE(Min.numOps(), 2) << toBuilderCode(Min);
  // Minimal specs still build and verify.
  buildGraph(Min).verify();
}

TEST(GraphFuzzShrinker, PreservesFailureWhenNothingCanShrink) {
  // A single-op graph under an always-true predicate shrinks to itself.
  FuzzSpec Spec;
  Spec.Seed = 5;
  FuzzNode In;
  In.Kind = OpKind::Input;
  In.LeafShape = Shape({2, 2});
  In.OutShape = Shape({2, 2});
  Spec.Nodes.push_back(In);
  FuzzNode Op;
  Op.Kind = OpKind::Relu;
  Op.Inputs = {0};
  Op.OutShape = Shape({2, 2});
  Op.IsOutput = true;
  Spec.Nodes.push_back(Op);

  FuzzSpec Min = shrinkSpec(Spec, [](const FuzzSpec &) { return true; });
  EXPECT_EQ(Min.numOps(), 1);
  EXPECT_EQ(Min.numOutputs(), 1);
}

TEST(GraphFuzzShrinker, RejectsCandidatesThatStopFailing) {
  // Predicate pins the exact node count: no reduction may be accepted.
  FuzzSpec Spec = buriedSoftmaxSpec();
  size_t N = Spec.Nodes.size();
  FuzzSpec Min = shrinkSpec(
      Spec, [N](const FuzzSpec &S) { return S.Nodes.size() == N; });
  EXPECT_EQ(Min.Nodes.size(), N);
}

//===----------------------------------------------------------------------===//
// Differential harness self-tests
//===----------------------------------------------------------------------===//

TEST(GraphFuzzDifferential, ConfigMatrixSpansTheOptimizationSpace) {
  const std::vector<DiffConfig> &M = defaultConfigMatrix();
  ASSERT_GE(M.size(), 3u);
  bool AnyFusionOff = false, AnyRewriteOff = false, AnyFullOn = false;
  for (const DiffConfig &C : M) {
    AnyFusionOff |= !C.Options.EnableFusion;
    AnyRewriteOff |= !C.Options.EnableGraphRewriting;
    AnyFullOn |= C.Options.EnableFusion && C.Options.EnableGraphRewriting &&
                 C.Options.EnableOtherOpts;
  }
  EXPECT_TRUE(AnyFusionOff);
  EXPECT_TRUE(AnyRewriteOff);
  EXPECT_TRUE(AnyFullOn);
}

TEST(GraphFuzzDifferential, ReportsInjectedDivergence) {
  // Sanity-check the failure path end-to-end: against an impossible
  // tolerance, even a matching pipeline "diverges", the shrinker runs, and
  // the report carries GraphBuilder code.
  FuzzSpec Spec = generateSpec(3);
  std::optional<DiffFailure> F =
      runDifferential(Spec, defaultConfigMatrix(), 0.0f, -1.0f);
  ASSERT_TRUE(F.has_value());
  EXPECT_FALSE(F->Config.empty());
  EXPECT_NE(F->Message.find("diverges"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The sweep
//===----------------------------------------------------------------------===//

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, OptimizedMatchesReferenceUnderAllConfigs) {
  std::string Report = fuzzOneSeed(sweepSeed(GetParam()),
                                   defaultConfigMatrix());
  EXPECT_TRUE(Report.empty()) << Report;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialFuzz,
                         ::testing::Range(0, NumSweepSeeds));

//===----------------------------------------------------------------------===//
// The malformed-request dimension
//===----------------------------------------------------------------------===//

/// Every fuzzed model must reject corrupted requests (wrong arity, shape,
/// dtype, null tensor, unknown name) with a clean Status — an abort here
/// kills the test binary, which is exactly what this sweep guards against.
class MalformedRequestFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MalformedRequestFuzz, RequestsAreRejectedNeverAborted) {
  std::string Report =
      fuzzMalformedRequests(generateSpec(sweepSeed(GetParam())));
  EXPECT_TRUE(Report.empty()) << Report;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MalformedRequestFuzz,
                         ::testing::Range(0, 60));

//===----------------------------------------------------------------------===//
// The serialization dimension
//===----------------------------------------------------------------------===//

/// Every fuzzed graph must round-trip through the binary and text
/// serializers exactly, its compiled artifact must restore to a
/// bit-identical executable, and a seed-derived corruption sweep over the
/// serialized blob must reject with a Status on every sample — an abort
/// kills the binary, which is the detector.
class SerializeRoundtripFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRoundtripFuzz, ArtifactsRoundtripAndCorruptionRejects) {
  std::string Report =
      fuzzSerializeRoundtrip(generateSpec(sweepSeed(GetParam())));
  EXPECT_TRUE(Report.empty()) << Report;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerializeRoundtripFuzz,
                         ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// The fault-injection dimension
//===----------------------------------------------------------------------===//

/// Every fuzzed model must survive each known fault point firing
/// intermittently through compile (via the on-disk cache) and serving:
/// typed Status or success from every call, no context leaks, healthy
/// again once the fault clears. An abort or deadlock kills/hangs this
/// binary, which is the detector.
class FaultInjectionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultInjectionFuzz, FaultsSurfaceTypedAndClear) {
  std::string Report =
      fuzzFaultInjection(generateSpec(sweepSeed(GetParam())));
  EXPECT_TRUE(Report.empty()) << Report;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultInjectionFuzz, ::testing::Range(0, 12));

} // namespace
