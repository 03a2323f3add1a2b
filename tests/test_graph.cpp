//===- tests/test_graph.cpp - graph IR unit tests --------------------------------===//

#include "GraphFuzz.h"
#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace dnnfusion;

namespace {

/// The order topologicalOrder() is pinned to, computed the slow way:
/// Kahn's algorithm re-sorting the whole ready list after every pop and
/// taking the smallest id.
std::vector<NodeId> sortedReadyOrder(const Graph &G) {
  std::vector<int> Pending(static_cast<size_t>(G.numNodes()), 0);
  std::vector<std::vector<NodeId>> Consumers = G.computeConsumers();
  std::vector<NodeId> Ready, Order;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead)
      continue;
    for (NodeId In : N.Inputs)
      Pending[static_cast<size_t>(Id)] += G.node(In).Dead ? 0 : 1;
    if (Pending[static_cast<size_t>(Id)] == 0)
      Ready.push_back(Id);
  }
  std::sort(Ready.begin(), Ready.end(), std::greater<NodeId>());
  while (!Ready.empty()) {
    NodeId Id = Ready.back();
    Ready.pop_back();
    Order.push_back(Id);
    for (NodeId User : Consumers[static_cast<size_t>(Id)]) {
      const std::vector<NodeId> &Ins = G.node(User).Inputs;
      int &P = Pending[static_cast<size_t>(User)];
      P -= static_cast<int>(std::count(Ins.begin(), Ins.end(), Id));
      if (P == 0)
        Ready.push_back(User);
    }
    std::sort(Ready.begin(), Ready.end(), std::greater<NodeId>());
  }
  return Order;
}

TEST(GraphTopologicalOrder, MatchesSortedReadyReferenceOnEveryZooModel) {
  for (const ModelZooEntry &E : modelZoo()) {
    Graph G = E.Build();
    EXPECT_EQ(G.topologicalOrder(), sortedReadyOrder(G)) << E.Info.Name;
  }
}

TEST(GraphTopologicalOrder, MatchesSortedReadyReferenceOnFuzzGraphs) {
  for (uint64_t Seed : {0u, 1u, 7u, 42u, 1234u}) {
    Graph G = testutil::buildGraph(testutil::generateSpec(Seed));
    EXPECT_EQ(G.topologicalOrder(), sortedReadyOrder(G)) << "seed " << Seed;
  }
}

TEST(GraphTopologicalOrder, MatchesSortedReadyReferenceOnEdgeCases) {
  GraphBuilder B(10);
  NodeId X = B.input(Shape({4}));
  // A wide constant fan-in: every constant is ready at the start, and the
  // chain consumes them from the highest id down.
  std::vector<NodeId> Weights;
  for (int I = 0; I < 48; ++I)
    Weights.push_back(B.weight(Shape({4})));
  NodeId Acc = B.mul(X, X); // Consumes one value twice.
  NodeId Dropped = B.relu(Acc);
  for (auto It = Weights.rbegin(); It != Weights.rend(); ++It)
    Acc = B.add(Acc, *It);
  B.sigmoid(Dropped);
  NodeId Late = B.weight(Shape({4}));
  B.markOutput(B.add(B.add(Acc, Acc), Late));
  Graph &G = B.graph();
  G.eraseDeadNodes();
  ASSERT_TRUE(G.node(Dropped).Dead);
  EXPECT_EQ(G.topologicalOrder(), sortedReadyOrder(G));
}

TEST(Graph, BuildAndInferShapes) {
  GraphBuilder B(1);
  NodeId X = B.input(Shape({2, 4}));
  NodeId W = B.weight(Shape({4, 8}));
  NodeId M = B.op(OpKind::MatMul, {X, W});
  EXPECT_EQ(B.graph().node(M).OutShape, Shape({2, 8}));
  EXPECT_EQ(B.graph().countLayers(), 1);
  EXPECT_EQ(B.graph().countComputeIntensiveLayers(), 1);
}

TEST(Graph, TopologicalOrderRespectsEdges) {
  GraphBuilder B(2);
  NodeId X = B.input(Shape({4}));
  NodeId A = B.relu(X);
  NodeId C = B.add(A, B.sigmoid(A));
  B.markOutput(C);
  const Graph &G = B.graph();
  std::vector<NodeId> Order = G.topologicalOrder();
  std::vector<int> Pos(static_cast<size_t>(G.numNodes()), -1);
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[static_cast<size_t>(Order[I])] = static_cast<int>(I);
  for (NodeId Id : Order)
    for (NodeId In : G.node(Id).Inputs)
      EXPECT_LT(Pos[static_cast<size_t>(In)], Pos[static_cast<size_t>(Id)]);
}

TEST(Graph, ConsumersIndex) {
  GraphBuilder B(3);
  NodeId X = B.input(Shape({4}));
  NodeId A = B.relu(X);
  NodeId C = B.add(A, A);
  auto Consumers = B.graph().computeConsumers();
  ASSERT_EQ(Consumers[static_cast<size_t>(A)].size(), 1u); // Deduplicated.
  EXPECT_EQ(Consumers[static_cast<size_t>(A)][0], C);
}

TEST(Graph, ReplaceAllUsesAndDce) {
  GraphBuilder B(4);
  NodeId X = B.input(Shape({4}));
  NodeId Old = B.relu(X);
  NodeId User = B.sigmoid(Old);
  B.markOutput(User);
  Graph &G = B.graph();
  NodeId New = G.addOp(OpKind::Tanh, {X});
  G.replaceAllUses(Old, New);
  EXPECT_EQ(G.node(User).Inputs[0], New);
  G.eraseDeadNodes();
  EXPECT_TRUE(G.node(Old).Dead);
  EXPECT_FALSE(G.node(New).Dead);
  G.verify();
}

TEST(GraphDeath, ReplaceAllUsesRequiresSameShape) {
  GraphBuilder B(5);
  NodeId X = B.input(Shape({4}));
  NodeId Y = B.input(Shape({5}));
  NodeId A = B.relu(X);
  NodeId Bv = B.relu(Y);
  EXPECT_DEATH(B.graph().replaceAllUses(A, Bv), "shape mismatch");
}

TEST(Graph, MetricsCountersAreConsistent) {
  GraphBuilder B(6);
  NodeId X = B.input(Shape({1, 3, 8, 8}));
  NodeId C = B.conv(X, 4, {3, 3}, {1, 1}, {1, 1});
  NodeId Rl = B.relu(C);
  B.markOutput(Rl);
  const Graph &G = B.graph();
  EXPECT_EQ(G.countLayers(), 2);
  EXPECT_EQ(G.countComputeIntensiveLayers(), 1);
  // Conv output (8x8x4 floats) is the only intermediate.
  EXPECT_EQ(G.intermediateBytes(), 4 * 8 * 8 * 4);
  EXPECT_GT(G.totalFlops(), 0);
}

TEST(Graph, ToStringMentionsEveryLiveNode) {
  GraphBuilder B(7);
  NodeId X = B.input(Shape({4}));
  B.markOutput(B.relu(X));
  std::string S = B.graph().toString();
  EXPECT_NE(S.find("Relu"), std::string::npos);
  EXPECT_NE(S.find("// output"), std::string::npos);
}

TEST(GraphBuilder, DecomposedLayerNormIsNumericallyLayerNorm) {
  GraphBuilder B(8);
  NodeId X = B.input(Shape({1, 2, 4}));
  NodeId Ln = B.layerNormDecomposed(X, 4);
  EXPECT_EQ(B.graph().node(Ln).OutShape, Shape({1, 2, 4}));
  // Decomposition uses only primitive operators (no LayerNorm op exists).
  for (int Id = 0; Id < B.graph().numNodes(); ++Id)
    if (!B.graph().node(Id).Dead) {
      EXPECT_NE(opKindName(B.graph().node(Id).Kind),
                std::string("LayerNormalization"));
    }
}

TEST(GraphBuilder, MishAndSiluExpandToPrimitives) {
  GraphBuilder B(9);
  NodeId X = B.input(Shape({4}));
  B.markOutput(B.mish(X));
  B.markOutput(B.silu(X));
  int Softplus = 0, Sigmoid = 0;
  for (int Id = 0; Id < B.graph().numNodes(); ++Id) {
    OpKind K = B.graph().node(Id).Kind;
    Softplus += K == OpKind::Softplus;
    Sigmoid += K == OpKind::Sigmoid;
  }
  EXPECT_EQ(Softplus, 1);
  EXPECT_EQ(Sigmoid, 1);
}

class RandomGraphTopo : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphTopo, VerifyAcceptsRandomDags) {
  Rng R(static_cast<uint64_t>(GetParam()) * 977 + 5);
  GraphBuilder B(R.next());
  std::vector<NodeId> Pool = {B.input(Shape({4, 8}))};
  for (int I = 0; I < 30; ++I) {
    NodeId A = Pool[R.nextBelow(Pool.size())];
    if (R.nextBool(0.4f)) {
      NodeId C = Pool[R.nextBelow(Pool.size())];
      Pool.push_back(B.add(A, C));
    } else {
      Pool.push_back(B.relu(A));
    }
  }
  B.markOutput(Pool.back());
  B.graph().verify();
  EXPECT_EQ(B.graph().countLayers(), 30);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomGraphTopo, ::testing::Range(0, 10));

} // namespace
