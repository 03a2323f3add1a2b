//===- tests/test_codegen.cpp - index maps, DFT, block compiler, emitter ----------===//

#include "TestUtils.h"

#include "core/BlockCompiler.h"
#include "core/CodeEmitter.h"
#include "core/FusionPlanner.h"
#include "core/IndexMap.h"
#include "graph/GraphBuilder.h"
#include "ops/Kernels.h"
#include "ops/OpSchema.h"

#include <gtest/gtest.h>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Index maps
//===----------------------------------------------------------------------===//

TEST(IndexMap, AffineFoldsToIdentityWhenRowMajor) {
  Shape S({2, 3});
  EXPECT_TRUE(IndexMap::affine(S, 0, S.rowMajorStrides()).isIdentity());
  EXPECT_FALSE(IndexMap::affine(S, 1, S.rowMajorStrides()).isIdentity());
}

TEST(IndexMap, ContiguousWalkMatchesPerIndexMapping) {
  // Property: mapContiguous == mapIndices on [Base, Base+Count).
  Rng R(5);
  for (int Trial = 0; Trial < 30; ++Trial) {
    std::vector<int64_t> Dims;
    int Rank = static_cast<int>(R.nextInRange(1, 4));
    for (int D = 0; D < Rank; ++D)
      Dims.push_back(R.nextInRange(2, 5));
    Shape Domain(Dims);
    std::vector<int64_t> Strides;
    for (int D = 0; D < Rank; ++D)
      Strides.push_back(R.nextInRange(-3, 7));
    IndexMap M = IndexMap::affine(Domain, R.nextInRange(0, 5), Strides);
    int64_t N = Domain.numElements();
    int64_t Base = R.nextInRange(0, N - 1);
    int Count = static_cast<int>(R.nextInRange(1, N - Base));
    std::vector<int64_t> A(static_cast<size_t>(Count)),
        B(static_cast<size_t>(Count));
    M.mapContiguous(Base, A.data(), Count);
    for (int I = 0; I < Count; ++I)
      B[static_cast<size_t>(I)] = Base + I;
    M.mapIndices(B.data(), B.data(), Count);
    EXPECT_EQ(A, B) << "trial " << Trial;
  }
}

/// Property: for every foldable movement operator, gathering the input
/// through movementOpMap reproduces the reference kernel's output.
struct MovementCase {
  const char *Name;
  OpKind Kind;
  Shape In;
  AttrMap Attrs;
};

class MovementMap : public ::testing::TestWithParam<MovementCase> {};

TEST_P(MovementMap, MapEqualsKernel) {
  const MovementCase &C = GetParam();
  Rng R(7);
  Tensor In(C.In);
  fillRandom(In, R);
  Shape OutShape = inferShape(C.Kind, C.Attrs, {C.In});
  Tensor Expected(OutShape);
  runRefKernel(C.Kind, C.Attrs, {&In}, Expected);

  GraphBuilder B(1);
  NodeId X = B.input(C.In);
  NodeId Op = B.op(C.Kind, {X}, C.Attrs);
  IndexMap Map = movementOpMap(B.graph(), B.graph().node(Op));
  for (int64_t I = 0; I < OutShape.numElements(); ++I)
    ASSERT_EQ(In.at(Map.map(I)), Expected.at(I)) << C.Name << " at " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MovementMap,
    ::testing::Values(
        MovementCase{"Reshape", OpKind::Reshape, Shape({2, 3, 4}),
                     AttrMap().set("shape", std::vector<int64_t>{6, 4})},
        MovementCase{"Flatten", OpKind::Flatten, Shape({2, 3, 4}),
                     AttrMap().set("axis", int64_t(1))},
        MovementCase{"Squeeze", OpKind::Squeeze, Shape({2, 1, 4}),
                     AttrMap().set("axes", std::vector<int64_t>{1})},
        MovementCase{"Unsqueeze", OpKind::Unsqueeze, Shape({2, 4}),
                     AttrMap().set("axes", std::vector<int64_t>{0})},
        MovementCase{"Transpose", OpKind::Transpose, Shape({2, 3, 4}),
                     AttrMap().set("perm", std::vector<int64_t>{2, 0, 1})},
        MovementCase{"Slice", OpKind::Slice, Shape({4, 6}),
                     AttrMap()
                         .set("starts", std::vector<int64_t>{1, 2})
                         .set("ends", std::vector<int64_t>{3, 6})
                         .set("axes", std::vector<int64_t>{0, 1})},
        MovementCase{"Expand", OpKind::Expand, Shape({1, 3}),
                     AttrMap().set("shape", std::vector<int64_t>{4, 3})},
        MovementCase{"Gather", OpKind::Gather, Shape({5, 3}),
                     AttrMap()
                         .set("axis", int64_t(0))
                         .set("indices", std::vector<int64_t>{4, 0, 2})},
        MovementCase{"Resize", OpKind::Resize, Shape({1, 2, 3, 3}),
                     AttrMap().set("scales",
                                   std::vector<int64_t>{1, 1, 2, 2})},
        MovementCase{"DepthToSpace", OpKind::DepthToSpace, Shape({1, 8, 2, 2}),
                     AttrMap().set("blocksize", int64_t(2))},
        MovementCase{"SpaceToDepth", OpKind::SpaceToDepth, Shape({1, 2, 4, 4}),
                     AttrMap().set("blocksize", int64_t(2))}),
    [](const ::testing::TestParamInfo<MovementCase> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Block compiler structure
//===----------------------------------------------------------------------===//

/// Compiles the whole graph as one block.
CompiledBlock compileWholeGraph(const Graph &G, const CodegenOptions &Opt = {}) {
  std::vector<NodeId> Ops;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (!N.Dead && N.Kind != OpKind::Input && N.Kind != OpKind::Constant)
      Ops.push_back(Id);
  }
  FusionPlan Plan = planFromGroups(G, {Ops});
  return compileBlock(G, Plan.Blocks[0], Opt);
}

TEST(BlockCompiler, ElementwiseChainIsOneExpressionStep) {
  GraphBuilder B(1);
  NodeId X = B.input(Shape({16}));
  B.markOutput(B.tanhOp(B.sigmoid(B.relu(X))));
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  EXPECT_EQ(CB.Steps[0].K, CompiledStep::Kind::Expression);
  EXPECT_EQ(CB.Steps[0].Tree.interiorNodeCount(), 3);
  EXPECT_EQ(CB.scratchBytes(), 0);
}

TEST(BlockCompiler, MovementOpsFoldIntoIndexChains) {
  GraphBuilder B(2);
  NodeId X = B.input(Shape({2, 3, 4}));
  NodeId T = B.transpose(X, {2, 0, 1});
  NodeId Rs = B.reshape(T, {8, 3});
  B.markOutput(B.relu(Rs));
  CodegenOptions Fold;
  CompiledBlock Folded = compileWholeGraph(B.graph(), Fold);
  ASSERT_EQ(Folded.Steps.size(), 1u); // Transpose+Reshape are index maps.
  CodegenOptions NoFold;
  NoFold.FoldDataMovement = false;
  CompiledBlock Materialized = compileWholeGraph(B.graph(), NoFold);
  EXPECT_GT(Materialized.Steps.size(), Folded.Steps.size());
  EXPECT_GT(Materialized.scratchBytes(), 0);
}

TEST(BlockCompiler, HeavyOpBecomesKernelStepWithStagedPrologue) {
  GraphBuilder B(3);
  NodeId X = B.input(Shape({4, 8}));
  NodeId Pre = B.relu(X); // Fused producer of the MatMul.
  NodeId M = B.op(OpKind::MatMul, {Pre, B.weight(Shape({8, 4}))});
  B.markOutput(B.sigmoid(M));
  CompiledBlock CB = compileWholeGraph(B.graph());
  // Steps: stage relu -> matmul kernel -> sigmoid epilogue expression.
  ASSERT_EQ(CB.Steps.size(), 3u);
  EXPECT_EQ(CB.Steps[0].K, CompiledStep::Kind::Expression);
  EXPECT_EQ(CB.Steps[1].K, CompiledStep::Kind::RefKernel);
  EXPECT_EQ(CB.Steps[1].Op, OpKind::MatMul);
  EXPECT_EQ(CB.Steps[2].K, CompiledStep::Kind::Expression);
  EXPECT_GT(CB.scratchBytes(), 0); // relu staging + matmul output.
}

TEST(BlockCompiler, SharedValueMaterializesOnceWithCse) {
  GraphBuilder B(4);
  NodeId X = B.input(Shape({64}));
  NodeId E = B.unary(OpKind::Exp, X);
  B.markOutput(B.add(B.sigmoid(E), B.tanhOp(E))); // E used twice.
  CodegenOptions Cse;
  CompiledBlock WithCse = compileWholeGraph(B.graph(), Cse);
  CodegenOptions NoCse;
  NoCse.MaterializeShared = false;
  CompiledBlock Without = compileWholeGraph(B.graph(), NoCse);
  // CSE: Exp materialized once into scratch. Without: recomputed inline.
  EXPECT_GT(WithCse.scratchBytes(), Without.scratchBytes());
  int ExpNodes = 0;
  for (const CompiledStep &S : Without.Steps)
    for (const DftNode &N : S.Tree.Nodes)
      ExpNodes += N.K == DftNode::Kind::Eltwise && N.Op == OpKind::Exp;
  EXPECT_EQ(ExpNodes, 2); // Recomputed per consumer.
}

TEST(BlockCompiler, ConcatBecomesRouter) {
  GraphBuilder B(5);
  NodeId X = B.input(Shape({2, 3}));
  NodeId Y = B.input(Shape({2, 5}));
  B.markOutput(B.relu(B.concat({X, Y}, 1)));
  CompiledBlock CB = compileWholeGraph(B.graph());
  bool HasRouter = false;
  for (const CompiledStep &S : CB.Steps)
    for (const DftNode &N : S.Tree.Nodes)
      HasRouter |= N.K == DftNode::Kind::Router;
  EXPECT_TRUE(HasRouter);
}

//===----------------------------------------------------------------------===//
// Code emission and the fused-operator cache
//===----------------------------------------------------------------------===//

TEST(CodeEmitter, EmitsLoopAndBuffers) {
  GraphBuilder B(6);
  NodeId X = B.input(Shape({2, 3, 4}));
  NodeId T = B.transpose(X, {0, 2, 1});
  B.markOutput(B.relu(T));
  const Graph &G = B.graph();
  std::vector<NodeId> Ops;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    if (!G.node(Id).Dead && G.node(Id).Kind != OpKind::Input)
      Ops.push_back(Id);
  FusionPlan Plan = planFromGroups(G, {Ops});
  CompiledBlock CB = compileBlock(G, Plan.Blocks[0]);
  std::string Src = emitBlockSource(G, CB, "fused_relu_transpose");
  EXPECT_NE(Src.find("void fused_relu_transpose("), std::string::npos);
  EXPECT_NE(Src.find("for (int64_t i = 0; i < 24; ++i)"), std::string::npos);
  EXPECT_NE(Src.find("relu("), std::string::npos);
  EXPECT_NE(Src.find("map0("), std::string::npos); // Folded transpose.
}

TEST(CodeEmitter, SignatureIdentifiesStructure) {
  GraphBuilder B1(7), B2(7), B3(8);
  for (GraphBuilder *B : {&B1, &B2}) {
    NodeId X = B->input(Shape({4, 4}));
    B->markOutput(B->relu(B->add(X, B->weight(Shape({4, 4})))));
  }
  NodeId X3 = B3.input(Shape({4, 4}));
  B3.markOutput(B3.sigmoid(B3.add(X3, B3.weight(Shape({4, 4})))));
  auto SigOf = [](const Graph &G) {
    std::vector<NodeId> Ops;
    for (int Id = 0; Id < G.numNodes(); ++Id)
      if (!G.node(Id).Dead && G.node(Id).Kind != OpKind::Input &&
          G.node(Id).Kind != OpKind::Constant)
        Ops.push_back(Id);
    FusionPlan Plan = planFromGroups(G, {Ops});
    return blockSignature(G, Plan.Blocks[0]);
  };
  EXPECT_EQ(SigOf(B1.graph()), SigOf(B2.graph()));
  EXPECT_NE(SigOf(B1.graph()), SigOf(B3.graph()));

  // Equal output shapes over different input shapes: the second Conv does
  // 8x the multiply-adds, so the two blocks cannot share a kernel.
  auto ConvRelu = [](int64_t InChannels) {
    GraphBuilder B(9);
    NodeId X = B.input(Shape({1, InChannels, 6, 6}));
    B.markOutput(B.relu(B.conv(X, 16, {3, 3}, {1, 1}, {1, 1})));
    return B.take();
  };
  EXPECT_NE(SigOf(ConvRelu(4)), SigOf(ConvRelu(32)));
}

//===----------------------------------------------------------------------===//
// Codegen option sweeps preserve semantics
//===----------------------------------------------------------------------===//

class CodegenOptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CodegenOptionSweep, OptionsNeverChangeResults) {
  int Variant = GetParam();
  GraphBuilder B(100 + static_cast<uint64_t>(Variant));
  NodeId X = B.input(Shape({2, 4, 6}));
  NodeId T = B.transpose(X, {0, 2, 1});
  NodeId E = B.unary(OpKind::Exp, T);
  NodeId Sum = B.add(E, B.reshape(B.relu(X), {2, 6, 4}));
  NodeId Out = B.mul(Sum, Sum);
  B.markOutput(Out);
  CompileOptions Opt;
  switch (Variant % 5) {
  case 0:
    Opt.Codegen.ChunkSize = 1;
    break;
  case 1:
    Opt.Codegen.ChunkSize = 7;
    break;
  case 2:
    Opt.Codegen.ChunkSize = 512;
    break;
  case 3:
    Opt.Codegen.FoldDataMovement = false;
    Opt.EnableOtherOpts = false;
    break;
  case 4:
    Opt.Codegen.MaterializeShared = false;
    break;
  }
  expectOptimizedMatchesReference(B.graph(), 1000 + Variant, Opt);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodegenOptionSweep, ::testing::Range(0, 10));

} // namespace
