//===- tests/test_rewrite.cpp - graph rewriting tests -----------------------------===//

#include "TestUtils.h"

#include "core/GraphRewriter.h"
#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"

#include <gtest/gtest.h>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

/// Runs rewriting and asserts outputs match the unrewritten graph.
RewriteStats rewriteAndCheckSemantics(Graph &G, uint64_t Seed,
                                      float RelTol = 2e-3f) {
  std::vector<Tensor> Inputs = randomInputs(G, Seed);
  std::vector<Tensor> Before = runReference(G, Inputs);
  RewriteStats Stats = rewriteGraph(G);
  std::vector<Tensor> After = runReference(G, Inputs);
  EXPECT_EQ(Before.size(), After.size());
  for (size_t I = 0; I < Before.size(); ++I)
    EXPECT_TRUE(allClose(After[I], Before[I], RelTol, RelTol))
        << "rewriting changed output " << I << " (max diff "
        << maxAbsDiff(After[I], Before[I]) << ")";
  return Stats;
}

std::vector<bool> deadFlags(const Graph &G) {
  std::vector<bool> Flags;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id)
    Flags.push_back(G.node(Id).Dead);
  return Flags;
}

/// The rewriter's dead-code removal must leave nothing for a full
/// reachability sweep to find.
void expectNoUnreachableNodes(const Graph &G, const std::string &What) {
  Graph Swept = G;
  Swept.eraseDeadNodes();
  EXPECT_EQ(deadFlags(Swept), deadFlags(G)) << What;
}

TEST(RewriteDeadCode, NothingUnreachableSurvivesOnTheZoo) {
  for (const ModelZooEntry &E : modelZoo()) {
    Graph G = E.Build();
    rewriteGraph(G);
    expectNoUnreachableNodes(G, E.Info.Name);
  }
}

TEST(RewriteDeadCode, NothingUnreachableSurvivesOnFuzzGraphs) {
  int Rewritten = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Graph G = buildGraph(generateSpec(Seed));
    std::vector<bool> Before = deadFlags(G);
    RewriteStats S = rewriteGraph(G);
    std::string What = "seed " + std::to_string(Seed);
    if (S.Applications == 0) {
      // Dead-code removal rides on rule applications: a graph no rule
      // touches comes back as given, unreachable nodes and all.
      EXPECT_EQ(deadFlags(G), Before) << What;
      continue;
    }
    ++Rewritten;
    expectNoUnreachableNodes(G, What);
  }
  EXPECT_GT(Rewritten, 50);
}

TEST(RewriteDeadCode, FirstApplicationDropsWhatTheInputLeftUnreachable) {
  // The unreachable Relu is a second consumer of the Square, so the first
  // scan sees two uses and sqrt-square (which needs a one-use Square)
  // cannot fire. Eliminating the Identity drops the Relu; the next scan
  // turns Sqrt(Square(x)) into Abs(x).
  GraphBuilder B(1);
  NodeId X = B.input(Shape({4}));
  NodeId Sq = B.unary(OpKind::Square, X);
  NodeId Rt = B.unary(OpKind::Sqrt, Sq);
  B.relu(Sq);
  B.markOutput(B.unary(OpKind::Identity, Rt));
  Graph G = B.take();
  RewriteStats S = rewriteGraph(G);
  EXPECT_EQ(S.Applications, 2);
  EXPECT_EQ(G.toString(), "%0 = Input() : 4\n"
                          "%5 = Abs(%0) : 4  // output\n");
}

TEST(RewriteRegistry, HasThePaperFamilies) {
  EXPECT_GE(countRules(RuleCategory::Associative), 6);
  EXPECT_GE(countRules(RuleCategory::Distributive), 4);
  EXPECT_GE(countRules(RuleCategory::Commutative), 15);
  EXPECT_GE(countRules(RuleCategory::Canonicalization), 10);
  EXPECT_GE(countRules(RuleCategory::Folding), 2);
  EXPECT_GE(static_cast<int>(allRewriteRules().size()), 45);
}

//===----------------------------------------------------------------------===//
// Table 4 flagship rules
//===----------------------------------------------------------------------===//

TEST(RewriteTable4, RecipMulAssociative) {
  // Recip(A) ⊙ Recip(A ⊙ B) -> Square(Recip(A)) ⊙ Recip(B).
  GraphBuilder B(1);
  NodeId A = B.input(Shape({8, 8})), Bv = B.input(Shape({8, 8}));
  NodeId Out = B.mul(B.unary(OpKind::Reciprocal, A),
                     B.unary(OpKind::Reciprocal, B.mul(A, Bv)));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 11);
  EXPECT_GE(S.PerCategory[static_cast<int>(RuleCategory::Associative)], 1);
  int Squares = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    Squares += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Square;
  EXPECT_EQ(Squares, 1);
}

TEST(RewriteTable4, SqrtPairEliminatesSqrt) {
  // (A ⊙ √B) ⊙ (√B ⊙ C) -> (A ⊙ B) ⊙ C.
  GraphBuilder B(2);
  NodeId A = B.input(Shape({4, 4})), Bx = B.input(Shape({4, 4})),
         C = B.input(Shape({4, 4}));
  NodeId S = B.unary(OpKind::Sqrt, Bx);
  NodeId Out = B.mul(B.mul(A, S), B.mul(S, C));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats Stats = rewriteAndCheckSemantics(G, 13);
  EXPECT_LT(Stats.FlopsAfter, Stats.FlopsBefore);
  for (int Id = 0; Id < G.numNodes(); ++Id)
    EXPECT_FALSE(!G.node(Id).Dead && G.node(Id).Kind == OpKind::Sqrt);
}

TEST(RewriteTable4, AbsPairCommutesThenAssociates) {
  // Abs(A) ⊙ B ⊙ Abs(C) -> Abs(A ⊙ C) ⊙ B (one Abs removed).
  GraphBuilder B(3);
  NodeId A = B.input(Shape({4, 4})), Bx = B.input(Shape({4, 4})),
         C = B.input(Shape({4, 4}));
  NodeId Out = B.mul(B.mul(B.unary(OpKind::Abs, A), Bx),
                     B.unary(OpKind::Abs, C));
  B.markOutput(Out);
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 17);
  int AbsCount = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    AbsCount += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Abs;
  EXPECT_EQ(AbsCount, 1);
}

TEST(RewriteTable4, ReduceSumPairSquares) {
  // (A ⊙ RS(B)) ⊙ (RS(B) ⊙ C) -> A ⊙ Square(RS(B)) ⊙ C.
  GraphBuilder B(4);
  NodeId A = B.input(Shape({8, 8})), Bx = B.input(Shape({8, 8})),
         C = B.input(Shape({8, 8}));
  NodeId RS = B.op(OpKind::ReduceSum, {Bx},
                   AttrMap()
                       .set("axes", std::vector<int64_t>{1})
                       .set("keepdims", int64_t(1)));
  NodeId Out = B.mul(B.mul(A, RS), B.mul(RS, C));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 19, 1e-2f);
  EXPECT_LE(S.FlopsAfter, S.FlopsBefore);
}

TEST(RewriteTable4, DistributiveFactorsCommonTerm) {
  // A ⊙ C + B ⊙ C -> (A + B) ⊙ C.
  GraphBuilder B(5);
  NodeId A = B.input(Shape({6, 6})), Bx = B.input(Shape({6, 6})),
         C = B.input(Shape({6, 6}));
  NodeId Out = B.add(B.mul(A, C), B.mul(Bx, C));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 23);
  EXPECT_LT(S.FlopsAfter, S.FlopsBefore);
  int Muls = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    Muls += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Mul;
  EXPECT_EQ(Muls, 1);
}

TEST(RewriteTable4, AddSelfMulFactorsA) {
  // A + A ⊙ B -> A ⊙ (B + 1).
  GraphBuilder B(6);
  NodeId A = B.input(Shape({6, 6})), Bx = B.input(Shape({6, 6}));
  NodeId Out = B.add(A, B.mul(A, Bx));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 29);
  EXPECT_GE(S.PerCategory[static_cast<int>(RuleCategory::Distributive)], 1);
}

TEST(RewriteTable4, SquareSubFactorsSharedSum) {
  // Square(S) - S ⊙ C -> S ⊙ (S - C), S = A + B.
  GraphBuilder B(7);
  NodeId A = B.input(Shape({6, 6})), Bx = B.input(Shape({6, 6})),
         C = B.input(Shape({6, 6}));
  NodeId S = B.add(A, Bx);
  NodeId Out = B.sub(B.unary(OpKind::Square, S), B.mul(S, C));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats Stats = rewriteAndCheckSemantics(G, 31);
  EXPECT_LT(Stats.FlopsAfter, Stats.FlopsBefore);
}

TEST(RewriteTable4, ReduceSumBitShiftCommutes) {
  // ReduceSum(BitShift(A)) -> BitShift(ReduceSum(A)): #FLOPS mn+m.
  GraphBuilder B(8);
  NodeId A = B.input(Shape({16, 32}));
  NodeId Sh = B.op(OpKind::BitShift, {A},
                   AttrMap().set("bits", int64_t(2)).set("direction",
                                                         int64_t(0)));
  NodeId Out = B.op(OpKind::ReduceSum, {Sh},
                    AttrMap()
                        .set("axes", std::vector<int64_t>{1})
                        .set("keepdims", int64_t(0)));
  B.markOutput(Out);
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 37, 1e-2f);
  // mn (shift) + mn (reduce) -> mn (reduce) + m (shift).
  EXPECT_EQ(S.FlopsBefore, 2 * 16 * 32);
  EXPECT_EQ(S.FlopsAfter, 16 * 32 + 16);
}

TEST(RewriteTable4, ReduceProdExpBecomesExpReduceSum) {
  GraphBuilder B(9);
  NodeId A = B.input(Shape({4, 8}));
  NodeId Out = B.op(OpKind::ReduceProd, {B.unary(OpKind::Exp, A)},
                    AttrMap()
                        .set("axes", std::vector<int64_t>{1})
                        .set("keepdims", int64_t(0)));
  B.markOutput(Out);
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 41, 1e-2f);
  bool HasReduceProd = false, HasReduceSum = false;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    if (G.node(Id).Dead)
      continue;
    HasReduceProd |= G.node(Id).Kind == OpKind::ReduceProd;
    HasReduceSum |= G.node(Id).Kind == OpKind::ReduceSum;
  }
  EXPECT_FALSE(HasReduceProd);
  EXPECT_TRUE(HasReduceSum);
}

//===----------------------------------------------------------------------===//
// Cancellation / canonicalization families
//===----------------------------------------------------------------------===//

struct CancelCase {
  const char *Name;
  OpKind Outer, Inner;
};

class CancelPair : public ::testing::TestWithParam<CancelCase> {};

TEST_P(CancelPair, PairCollapses) {
  CancelCase C = GetParam();
  GraphBuilder B(10);
  NodeId A = B.input(Shape({4, 4}));
  NodeId Out = B.unary(C.Outer, B.unary(C.Inner, A));
  B.markOutput(Out);
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 43);
  EXPECT_EQ(G.countLayers(), 0) << C.Name; // Fully cancelled to the input.
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CancelPair,
    ::testing::Values(CancelCase{"LogExp", OpKind::Log, OpKind::Exp},
                      CancelCase{"ExpLog", OpKind::Exp, OpKind::Log},
                      CancelCase{"RecipRecip", OpKind::Reciprocal,
                                 OpKind::Reciprocal},
                      CancelCase{"NegNeg", OpKind::Neg, OpKind::Neg},
                      CancelCase{"SquareSqrt", OpKind::Square, OpKind::Sqrt}),
    [](const ::testing::TestParamInfo<CancelCase> &Info) {
      return Info.param.Name;
    });

TEST(RewriteCanon, MulSelfBecomesSquareThenChainsWithSqrt) {
  // Mul(Sqrt(A), Sqrt(A)) -> Square(Sqrt(A)) -> A: two rules chain.
  GraphBuilder B(11);
  NodeId A = B.input(Shape({4, 4}));
  NodeId S = B.unary(OpKind::Sqrt, A);
  B.markOutput(B.mul(S, S));
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 47);
  EXPECT_EQ(G.countLayers(), 0);
}

TEST(RewriteCanon, PowVariants) {
  GraphBuilder B(12);
  NodeId A = B.input(Shape({4}));
  NodeId Two = B.scalar(2.0f), Half = B.scalar(0.5f), One = B.scalar(1.0f);
  B.markOutput(B.binary(OpKind::Pow, A, Two));
  B.markOutput(B.binary(OpKind::Pow, A, Half));
  B.markOutput(B.binary(OpKind::Pow, A, One));
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 53);
  int Pows = 0, Squares = 0, Sqrts = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    if (G.node(Id).Dead)
      continue;
    Pows += G.node(Id).Kind == OpKind::Pow;
    Squares += G.node(Id).Kind == OpKind::Square;
    Sqrts += G.node(Id).Kind == OpKind::Sqrt;
  }
  EXPECT_EQ(Pows, 0);
  EXPECT_EQ(Squares, 1);
  EXPECT_EQ(Sqrts, 1);
}

TEST(RewriteCanon, IdentityOperandsVanish) {
  GraphBuilder B(13);
  NodeId A = B.input(Shape({4}));
  NodeId Out = B.div(B.sub(B.add(B.mul(A, B.scalar(1.0f)), B.scalar(0.0f)),
                           B.scalar(0.0f)),
                     B.scalar(1.0f));
  B.markOutput(Out);
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 59);
  EXPECT_EQ(G.countLayers(), 0);
}

TEST(RewriteCanon, TransposePairCollapses) {
  GraphBuilder B(14);
  NodeId A = B.input(Shape({2, 3, 4}));
  NodeId T1 = B.transpose(A, {2, 0, 1});
  NodeId T2 = B.transpose(T1, {1, 2, 0});
  B.markOutput(B.relu(T2));
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 61);
  int Transposes = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    Transposes += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Transpose;
  EXPECT_EQ(Transposes, 0);
}

TEST(RewriteCanon, ReshapeChainCollapsesToOne) {
  GraphBuilder B(15);
  NodeId A = B.input(Shape({2, 3, 4}));
  NodeId R1 = B.reshape(A, {6, 4});
  NodeId R2 = B.reshape(R1, {24});
  NodeId R3 = B.reshape(R2, {4, 6});
  B.markOutput(B.relu(R3));
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 67);
  int Reorgs = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    Reorgs += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Reshape;
  EXPECT_EQ(Reorgs, 1);
}

//===----------------------------------------------------------------------===//
// Folding
//===----------------------------------------------------------------------===//

TEST(RewriteFold, ConvBatchNormFoldsIntoWeights) {
  GraphBuilder B(16);
  NodeId X = B.input(Shape({1, 3, 8, 8}));
  NodeId C = B.conv(X, 4, {3, 3}, {1, 1}, {1, 1});
  NodeId Bn = B.batchNorm(C);
  B.markOutput(B.relu(Bn));
  Graph G = B.take();
  RewriteStats S = rewriteAndCheckSemantics(G, 71);
  EXPECT_GE(S.PerCategory[static_cast<int>(RuleCategory::Folding)], 1);
  for (int Id = 0; Id < G.numNodes(); ++Id)
    EXPECT_FALSE(!G.node(Id).Dead &&
                 G.node(Id).Kind == OpKind::BatchNormalization);
}

TEST(RewriteFold, ScalarMulFoldsIntoConv) {
  GraphBuilder B(17);
  NodeId X = B.input(Shape({1, 2, 6, 6}));
  NodeId C = B.conv(X, 4, {3, 3});
  B.markOutput(B.mul(C, B.scalar(0.5f)));
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 73);
  int Muls = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    Muls += !G.node(Id).Dead && G.node(Id).Kind == OpKind::Mul;
  EXPECT_EQ(Muls, 0);
}

//===----------------------------------------------------------------------===//
// Driver behaviour
//===----------------------------------------------------------------------===//

TEST(RewriteDriver, TerminatesOnAdversarialChains) {
  // Long alternating chains must reach a fixpoint well under the cap.
  GraphBuilder B(18);
  NodeId X = B.input(Shape({4}));
  NodeId H = X;
  for (int I = 0; I < 40; ++I)
    H = B.unary(I % 2 ? OpKind::Neg : OpKind::Reciprocal, H);
  B.markOutput(H);
  Graph G = B.take();
  RewriteStats S = rewriteGraph(G);
  EXPECT_LT(S.Applications, 1000);
  G.verify();
}

TEST(RewriteDriver, CountsRegions) {
  GraphBuilder B(20);
  NodeId X = B.input(Shape({1, 2, 6, 6}));
  // Two algebraic regions separated by a Conv partition point.
  NodeId R1 = B.mul(B.relu(X), X); // relu is not a region op; mul is.
  NodeId C = B.conv(R1, 2, {3, 3});
  NodeId R2 = B.add(C, C);
  B.markOutput(R2);
  EXPECT_EQ(countRewriteRegions(B.graph()), 2);
}

TEST(RewriteDriver, SharedSubexpressionsAreNotMangled) {
  // A value consumed by two match sites must survive one-use checks.
  GraphBuilder B(21);
  NodeId A = B.input(Shape({4, 4}));
  NodeId E = B.unary(OpKind::Exp, A);
  B.markOutput(B.unary(OpKind::Log, E)); // Log(Exp(A)) -> A.
  B.markOutput(B.mul(E, E));             // Uses Exp twice.
  Graph G = B.take();
  rewriteAndCheckSemantics(G, 79);
}

} // namespace
