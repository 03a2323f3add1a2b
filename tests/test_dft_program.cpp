//===- tests/test_dft_program.cpp - Compiled execution engine --------------------===//
//
// The compiled execution engine end to end: DftTree -> DftProgram tape
// lowering (register allocation, variant selection, router/gather edge
// cases) checked bitwise against the per-op reference walker, packed-vs-
// naive bit-identity at the kernel and model-zoo levels, the prepack
// store lifecycle (compile, cache hit, save/load), and the engine-path
// observability counters.
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "core/CodeEmitter.h"
#include "core/DftProgram.h"
#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"
#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
#include "runtime/InferenceSession.h"
#include "serialize/ModelSerializer.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

/// Compiles every operator of \p G into one block (the whole graph as a
/// single fused kernel).
CompiledBlock compileWholeGraph(const Graph &G,
                                const CodegenOptions &Opt = {}) {
  std::vector<NodeId> Ops;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (!N.Dead && N.Kind != OpKind::Input && N.Kind != OpKind::Constant)
      Ops.push_back(Id);
  }
  FusionPlan Plan = planFromGroups(G, {Ops});
  return compileBlock(G, Plan.Blocks[0], Opt);
}

int countInstrs(const DftProgram &P, DftInstr::Kind K) {
  int N = 0;
  for (const DftInstr &I : P.Instrs)
    N += I.K == K ? 1 : 0;
  return N;
}

/// Executes \p CB — compiled from the whole of \p G — at every chunk size
/// in \p ChunkSizes and at both kernel tiers, and expects every
/// block-local buffer bitwise equal to the per-op walker's value of its
/// node (testutil::runPerOpWalker, which never touches a tape).
void expectBlockMatchesWalker(const Graph &G, const CompiledBlock &CB,
                              std::initializer_list<int> ChunkSizes = {256}) {
  int ExpressionSteps = 0;
  for (const CompiledStep &S : CB.Steps)
    ExpressionSteps += S.K == CompiledStep::Kind::Expression ? 1 : 0;
  EXPECT_GT(ExpressionSteps, 0);

  std::vector<Tensor> Want =
      runPerOpWalker(G, randomInputs(G, 17, -2.0f, 2.0f));
  BlockIo Io;
  for (NodeId Id : CB.ExternalInputs)
    Io.Externals.push_back(Want[static_cast<size_t>(Id)].data());
  std::vector<std::vector<float>> Locals;
  for (const CompiledBlock::LocalBuffer &L : CB.Locals)
    Locals.emplace_back(static_cast<size_t>(L.Sh.numElements()));
  for (std::vector<float> &L : Locals)
    Io.LocalPtrs.push_back(L.data());

  for (int Chunk : ChunkSizes)
    for (int Force : {0, 1}) {
      for (std::vector<float> &L : Locals)
        std::fill(L.begin(), L.end(), -7.0f);
      CodegenOptions Opt;
      Opt.ChunkSize = Chunk;
      Opt.Kernels.ForceKernelLevel = Force;
      executeBlock(CB, Io, Opt);
      for (size_t J = 0; J < Locals.size(); ++J) {
        const Tensor &Ref = Want[static_cast<size_t>(CB.Locals[J].Node)];
        ASSERT_EQ(static_cast<size_t>(Ref.numElements()), Locals[J].size());
        for (size_t I = 0; I < Locals[J].size(); ++I) {
          uint32_t RefBits, GotBits;
          std::memcpy(&RefBits, Ref.data() + I, sizeof(float));
          std::memcpy(&GotBits, Locals[J].data() + I, sizeof(float));
          ASSERT_EQ(RefBits, GotBits)
              << "chunk " << Chunk << " tier " << Force << " node "
              << CB.Locals[J].Node << " elem " << I << ": walker "
              << Ref.data()[I] << " vs block " << Locals[J][I];
        }
      }
    }
}

//===----------------------------------------------------------------------===//
// Tape lowering: variant selection and register allocation
//===----------------------------------------------------------------------===//

TEST(DftProgramLowering, ElementwiseChainReusesOneRegister) {
  GraphBuilder B(1);
  NodeId H = B.input(Shape({1024}));
  for (int I = 0; I < 8; ++I)
    H = B.unary(I % 2 ? OpKind::Sigmoid : OpKind::Relu, H);
  B.markOutput(H);
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  // Eight unary operators over a contiguous leaf: eight Eltwise
  // instructions, zero gathers/maps, and last-use reuse keeps the whole
  // chain in a single chunk register.
  EXPECT_EQ(P.Instrs.size(), 8u);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::Eltwise), 8);
  EXPECT_EQ(P.NumValueRegs, 1);
  EXPECT_EQ(P.NumIndexSets, 1);
  // The leaf feeds the first operator as a zero-copy contiguous slot.
  EXPECT_TRUE(P.Instrs.front().Args[0].IsSlot);
  // The final operator writes the chunk output directly.
  EXPECT_EQ(P.Instrs.back().Dst, DftProgram::OutputReg);
  expectBlockMatchesWalker(B.graph(), CB, {16, 256, 512});
}

TEST(DftProgramLowering, BinaryTreeRegisterHighWaterStaysSmall) {
  // add(add(relu(x), sigmoid(x)), add(tanh(x), neg(x))): a balanced
  // binary expression needs at most depth+1 live registers.
  GraphBuilder B(2);
  NodeId X = B.input(Shape({512}));
  NodeId L = B.add(B.relu(X), B.sigmoid(X));
  NodeId R = B.add(B.tanhOp(X), B.unary(OpKind::Neg, X));
  B.markOutput(B.add(L, R));
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::Eltwise), 7);
  EXPECT_LE(P.NumValueRegs, 3);
  expectBlockMatchesWalker(B.graph(), CB);
}

TEST(DftProgramLowering, FoldedTransposeBecomesMapAndGather) {
  GraphBuilder B(3);
  NodeId X = B.input(Shape({8, 16, 4}));
  B.markOutput(B.relu(B.transpose(X, {1, 0, 2})));
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  // Transpose folds to an index chain: one MapIndices producing an
  // explicit set, one LoadGather through it, one Relu.
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::MapIndices), 1);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadGather), 1);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::Eltwise), 1);
  EXPECT_EQ(P.NumIndexSets, 2);
  expectBlockMatchesWalker(B.graph(), CB, {17, 256});
}

TEST(DftProgramLowering, PureMovementRootGathersStraightToOutput) {
  // A staged transpose (no elementwise op at all): the root-wrap Identity
  // must fold away, leaving a gather that writes the output span.
  GraphBuilder B(4);
  NodeId X = B.input(Shape({8, 16}));
  B.markOutput(B.transpose(X, {1, 0}));
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  ASSERT_EQ(P.Instrs.size(), 2u);
  EXPECT_EQ(P.Instrs[0].K, DftInstr::Kind::MapIndices);
  EXPECT_EQ(P.Instrs[1].K, DftInstr::Kind::LoadGather);
  EXPECT_EQ(P.Instrs[1].Dst, DftProgram::OutputReg);
  EXPECT_EQ(P.NumValueRegs, 1); // Allocated, then retargeted at out.
  expectBlockMatchesWalker(B.graph(), CB, {8, 100, 256});
}

TEST(DftProgramLowering, ConcatLowersToRouterSplitMerge) {
  GraphBuilder B(5);
  NodeId X = B.input(Shape({3, 5}));
  NodeId Y = B.input(Shape({3, 7}));
  B.markOutput(B.relu(B.concat({X, Y}, 1)));
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::RouterSplit), 1);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::RouterMerge), 1);
  // Branch leaves always gather (their sets are compacted, never
  // contiguous).
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadGather), 2);
  // One set per branch plus the implicit contiguous set.
  EXPECT_EQ(P.NumIndexSets, 3);
  // Chunk sizes that split, straddle, and cover whole branch rows.
  expectBlockMatchesWalker(B.graph(), CB, {4, 5, 12, 256});
}

TEST(DftProgramLowering, NestedConcatWithMappedBranches) {
  // concat(transpose(x), concat(y, broadcast-add)) exercises routers under
  // routers, mapped branch chains, and gathers inside branch subtrees.
  GraphBuilder B(6);
  NodeId X = B.input(Shape({4, 6}));
  NodeId Y = B.input(Shape({4, 3}));
  NodeId Z = B.input(Shape({4, 2}));
  NodeId T = B.transpose(X, {1, 0});     // 6x4 -> folded map
  NodeId TT = B.transpose(T, {1, 0});    // back to 4x6
  NodeId Inner = B.concat({Y, Z}, 1);    // 4x5
  B.markOutput(B.relu(B.concat({TT, Inner}, 1))); // 4x11
  CompiledBlock CB = compileWholeGraph(B.graph());
  ASSERT_EQ(CB.Steps.size(), 1u);
  const DftProgram &P = CB.Steps[0].Program;
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::RouterSplit), 2);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::RouterMerge), 2);
  expectBlockMatchesWalker(B.graph(), CB, {3, 11, 64, 256});
}

TEST(DftProgramLowering, BroadcastRowOperandLowersToPeriodicLoad) {
  GraphBuilder B(7);
  NodeId X = B.input(Shape({4, 8}));
  NodeId Row = B.input(Shape({8}));
  B.markOutput(B.add(X, Row));
  CompiledBlock CB = compileWholeGraph(B.graph());
  const DftProgram &P = CB.Steps[0].Program;
  // A right-aligned rank-1 broadcast (the GEMM-bias pattern) skips the
  // generic map + gather pair for a period-aligned block copy; the
  // aligned operand stays a zero-copy slot argument.
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadPeriodic), 1);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::MapIndices), 0);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadGather), 0);
  bool SawSlotArg = false;
  for (const DftInstr &I : P.Instrs)
    if (I.K == DftInstr::Kind::Eltwise)
      for (int A = 0; A < I.NumArgs; ++A)
        SawSlotArg |= I.Args[A].IsSlot;
  EXPECT_TRUE(SawSlotArg);
  expectBlockMatchesWalker(B.graph(), CB, {8, 30, 256});
}

TEST(DftProgramLowering, BroadcastScalarOperandLowersToSplat) {
  GraphBuilder B(7);
  NodeId X = B.input(Shape({4, 8}));
  B.markOutput(B.mul(X, B.scalar(0.5f)));
  CompiledBlock CB = compileWholeGraph(B.graph());
  const DftProgram &P = CB.Steps[0].Program;
  // A scalar operand's chain collapses to one fixed index: a register
  // fill, no index arithmetic at all.
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadSplat), 1);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::MapIndices), 0);
  EXPECT_EQ(countInstrs(P, DftInstr::Kind::LoadGather), 0);
  expectBlockMatchesWalker(B.graph(), CB, {8, 30, 256});
}

TEST(DftProgramLowering, EmitterRendersTape) {
  GraphBuilder B(8);
  NodeId X = B.input(Shape({2, 3, 4}));
  B.markOutput(B.relu(B.transpose(X, {0, 2, 1})));
  const Graph &G = B.graph();
  CompiledBlock CB = compileWholeGraph(G);
  std::string Src = emitBlockSource(G, CB, "k");
  EXPECT_NE(Src.find("program tape"), std::string::npos);
  EXPECT_NE(Src.find("load.gather"), std::string::npos);
  EXPECT_NE(Src.find("map.chain0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Packed GEMM engine: layout and bit-identity vs the naive kernels
//===----------------------------------------------------------------------===//

TEST(PackedGemm, PanelLayoutAndTailPadding) {
  // B = [2, 9] with NR = 8: two panels, the second 1 column + 7 zeros.
  std::vector<float> B(18);
  for (size_t I = 0; I < B.size(); ++I)
    B[I] = static_cast<float>(I + 1);
  std::vector<float> Packed(static_cast<size_t>(packedPanelElems(2, 9, 8)));
  ASSERT_EQ(Packed.size(), 32u);
  packBPanels(B.data(), 9, 1, 2, 9, 8, Packed.data());
  // Panel 0: rows (1..8), (10..17). Panel 1: (9,0,...), (18,0,...).
  const float Want[] = {1,  2,  3,  4,  5,  6,  7,  8,  10, 11, 12,
                        13, 14, 15, 16, 17, 9,  0,  0,  0,  0,  0,
                        0,  0,  18, 0,  0,  0,  0,  0,  0,  0};
  for (size_t I = 0; I < 32; ++I)
    EXPECT_EQ(Packed[I], Want[I]) << "at " << I;
}

TEST(PackedGemm, BitIdenticalToNaiveAcrossShapesAndBlocking) {
  Rng R(23);
  for (auto [M, N, K] : {std::tuple<int64_t, int64_t, int64_t>{1, 37, 19},
                         {5, 8, 64},
                         {33, 130, 47},
                         {64, 64, 64}}) {
    Tensor A(Shape({M, K})), B(Shape({K, N}));
    fillRandom(A, R, -2.0f, 2.0f);
    fillRandom(B, R, -2.0f, 2.0f);
    // Naive reference (the naive row walk's ascending-k order).
    Tensor Ref(Shape({M, N}));
    for (int64_t I = 0; I < M; ++I)
      for (int64_t J = 0; J < N; ++J) {
        float Acc = 0.0f;
        for (int64_t Kk = 0; Kk < K; ++Kk)
          Acc += A.at(I * K + Kk) * B.at(Kk * N + J);
        Ref.at(I * N + J) = Acc;
      }
    for (int NR : {GemmNarrowNR, GemmWideNR}) {
      std::vector<float> Packed(
          static_cast<size_t>(packedPanelElems(K, N, NR)));
      packBPanels(B.data(), N, 1, K, N, NR, Packed.data());
      Tensor C(Shape({M, N}));
      gemmPackedRows(A.data(), K, 1, Packed.data(), C.data(), N, 0, M, N, K,
                     NR, nullptr, KernelLevel::Scalar);
      for (int64_t I = 0; I < M * N; ++I)
        ASSERT_EQ(C.at(I), Ref.at(I)) << "NR=" << NR << " M=" << M
                                      << " N=" << N << " K=" << K << " at "
                                      << I;
    }
  }
}

/// Runs \p Kind twice (packed on/off) over \p Inputs and expects equal
/// outputs element-for-element.
void expectKernelPathIdentity(OpKind Kind, const AttrMap &Attrs,
                              const std::vector<const Tensor *> &Inputs,
                              const Shape &OutShape) {
  Tensor Packed(OutShape), Naive(OutShape);
  KernelConfig On; // defaults: packed enabled
  KernelConfig Off;
  Off.UsePackedGemm = false;
  runRefKernel(Kind, Attrs, Inputs, Packed, On);
  runRefKernel(Kind, Attrs, Inputs, Naive, Off);
  for (int64_t I = 0; I < Packed.numElements(); ++I)
    ASSERT_EQ(Packed.at(I), Naive.at(I)) << opKindName(Kind) << " at " << I;
}

TEST(PackedGemm, MatMulBatchedAndBroadcastAgreeWithNaive) {
  Rng R(29);
  // Batched B (one slice per batch) and broadcast B (one shared slice).
  for (auto Shapes :
       {std::pair<Shape, Shape>{Shape({3, 24, 40}), Shape({3, 40, 32})},
        {Shape({4, 2, 24, 40}), Shape({40, 32})},
        {Shape({2, 2, 16, 32}), Shape({2, 1, 32, 24})}}) {
    Tensor A(Shapes.first), B(Shapes.second);
    fillRandom(A, R, -1.5f, 1.5f);
    fillRandom(B, R, -1.5f, 1.5f);
    // Output shape: broadcast batch dims + [M, N].
    std::vector<const Tensor *> Inputs{&A, &B};
    Shape Out = inferShape(OpKind::MatMul, AttrMap(),
                            {A.shape(), B.shape()});
    expectKernelPathIdentity(OpKind::MatMul, AttrMap(), Inputs, Out);
  }
}

TEST(PackedGemm, GemmAllTransposeAndBiasVariantsAgreeWithNaive) {
  Rng R(31);
  int64_t M = 24, N = 40, K = 32;
  for (int TA : {0, 1})
    for (int TB : {0, 1})
      for (int BiasKind : {-1, 0, 1, 2, 3}) {
        Tensor A(TA ? Shape({K, M}) : Shape({M, K}));
        Tensor B(TB ? Shape({N, K}) : Shape({K, N}));
        fillRandom(A, R, -1.5f, 1.5f);
        fillRandom(B, R, -1.5f, 1.5f);
        AttrMap Attrs;
        Attrs.set("transA", TA);
        Attrs.set("transB", TB);
        std::vector<const Tensor *> Inputs{&A, &B};
        Tensor Bias;
        if (BiasKind >= 0) {
          Shape BiasShape = BiasKind == 0   ? Shape({int64_t(1)})
                            : BiasKind == 1 ? Shape({N})
                            : BiasKind == 2 ? Shape({M, int64_t(1)})
                                            : Shape({M, N});
          Bias = Tensor(BiasShape);
          fillRandom(Bias, R, -1.0f, 1.0f);
          Inputs.push_back(&Bias);
        }
        expectKernelPathIdentity(OpKind::Gemm, Attrs, Inputs,
                                 Shape({M, N}));
      }
}

TEST(PackedGemm, ConvVariantsAgreeWithDirect) {
  Rng R(37);
  struct Case {
    Shape X, W;
    std::vector<int64_t> Strides, Pads, Dilations;
    int64_t Group;
  };
  const Case Cases[] = {
      // Plain 3x3, padded.
      {Shape({1, 8, 14, 14}), Shape({16, 8, 3, 3}), {1, 1}, {1, 1}, {1, 1}, 1},
      // Strided, asymmetric spatial size.
      {Shape({2, 6, 19, 13}), Shape({12, 6, 3, 3}), {2, 2}, {1, 1}, {1, 1}, 1},
      // Dilated.
      {Shape({1, 4, 16, 16}), Shape({8, 4, 3, 3}), {1, 1}, {2, 2}, {2, 2}, 1},
      // Grouped (2 groups).
      {Shape({1, 8, 12, 12}), Shape({16, 4, 3, 3}), {1, 1}, {1, 1}, {1, 1}, 2},
      // 1x1 pointwise.
      {Shape({1, 16, 10, 10}), Shape({32, 16, 1, 1}), {1, 1}, {0, 0}, {1, 1}, 1},
      // 3-D conv.
      {Shape({1, 4, 6, 10, 10}), Shape({8, 4, 3, 3, 3}), {1, 1, 1},
       {1, 1, 1}, {1, 1, 1}, 1},
      // Dilated 3-D conv, strided on one axis.
      {Shape({1, 4, 7, 10, 9}), Shape({8, 4, 3, 3, 3}), {1, 2, 1},
       {1, 2, 0}, {2, 2, 2}, 1},
  };
  for (const Case &C : Cases) {
    Tensor X(C.X), W(C.W);
    fillRandom(X, R, -1.5f, 1.5f);
    fillRandom(W, R, -1.5f, 1.5f);
    AttrMap Attrs;
    Attrs.set("strides", C.Strides);
    Attrs.set("pads", C.Pads);
    Attrs.set("dilations", C.Dilations);
    Attrs.set("group", C.Group);
    Tensor Bias(Shape({C.W.dim(0)}));
    fillRandom(Bias, R, -1.0f, 1.0f);
    Shape Out = inferShape(OpKind::Conv, Attrs, {C.X, C.W});
    // Every case is one the im2col path takes.
    EXPECT_GT(detail::packScratchElemsForStep(OpKind::Conv, Attrs,
                                              {C.X, C.W}, Out, KernelConfig(),
                                              /*WeightIsConstant=*/true),
              0);
    for (bool WithBias : {false, true}) {
      std::vector<const Tensor *> Inputs{&X, &W};
      if (WithBias)
        Inputs.push_back(&Bias);
      expectKernelPathIdentity(OpKind::Conv, Attrs, Inputs, Out);
    }
  }
}

//===----------------------------------------------------------------------===//
// Prepack lifecycle and engine-path counters
//===----------------------------------------------------------------------===//

/// A small transformer-ish model with constant GEMM/MatMul weights — every
/// Many-to-Many weight should prepack.
Graph constantWeightModel(uint64_t Seed) {
  GraphBuilder B(Seed);
  NodeId X = B.input(Shape({16, 32}));
  NodeId H = B.op(OpKind::Gemm, {X, B.weight(Shape({32, 48}))});
  H = B.relu(H);
  H = B.op(OpKind::MatMul, {H, B.weight(Shape({48, 32}))});
  B.markOutput(H);
  return B.take();
}

TEST(PrepackStore, ConstantWeightsPackOnceAndHitAtRunTime) {
  CompiledModel M =
      cantFail(compileModel(constantWeightModel(11), CompileOptions()));
  EXPECT_EQ(M.Prepack.size(), 2u);
  int StepsWithPrepack = 0;
  for (const CompiledBlock &B : M.Blocks)
    for (const CompiledStep &S : B.Steps)
      StepsWithPrepack += S.PrepackIndex >= 0 ? 1 : 0;
  EXPECT_EQ(StepsWithPrepack, 2);

  ExecutionContext E(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 5);
  ExecutionStats Stats;
  E.run(Inputs, &Stats);
  EXPECT_EQ(Stats.Engine.PrepackHits, 2);
  EXPECT_EQ(Stats.Engine.PrepackMisses, 0);
  EXPECT_EQ(Stats.Engine.PackedKernelCalls, 2);
  EXPECT_EQ(Stats.Engine.DirectKernelCalls, 0);
  // The relu between the two GEMMs runs as one program step of its own.
  EXPECT_EQ(Stats.Engine.ProgramSteps, 1);
}

TEST(PrepackStore, DisabledEngineReportsLegacyPaths) {
  CompileOptions Opt;
  Opt.Codegen.Kernels.UsePackedGemm = false;
  CompiledModel M = cantFail(compileModel(constantWeightModel(11), Opt));
  EXPECT_TRUE(M.Prepack.empty());
  ExecutionContext E(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 5);
  ExecutionStats Stats;
  E.run(Inputs, &Stats);
  EXPECT_EQ(Stats.Engine.PackedKernelCalls, 0);
  EXPECT_EQ(Stats.Engine.DirectKernelCalls, 2);
}

TEST(PrepackStore, SessionMetricsAccumulateEngineCounters) {
  CompiledModel M =
      cantFail(compileModel(constantWeightModel(11), CompileOptions()));
  InferenceSession Session(std::move(M));
  std::vector<Tensor> Inputs =
      randomInputs(Session.model().G, 5);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(Session.run(Inputs).ok());
  SessionMetrics Metrics = Session.metrics();
  EXPECT_EQ(Metrics.RequestsServed, 3u);
  EXPECT_EQ(Metrics.Engine.PrepackHits, 6);
  EXPECT_EQ(Metrics.Engine.PackedKernelCalls, 6);
  EXPECT_EQ(Metrics.Engine.ProgramSteps, 3);
}

TEST(PrepackStore, SaveLoadRebuildsPrepackAndExecutesBitIdentically) {
  CompiledModel M =
      cantFail(compileModel(constantWeightModel(13), CompileOptions()));
  std::vector<Tensor> Inputs = randomInputs(M.G, 7);
  ExecutionContext E(M);
  std::vector<Tensor> Before = E.run(Inputs);

  std::string Path = formatString("/tmp/dnnf_prepack_%d.dnnf",
                                  static_cast<int>(::getpid()));
  ASSERT_TRUE(saveModel(M, Path).ok());
  Expected<CompiledModel> Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok());
  std::remove(Path.c_str());
  // Prepack is derived state: rebuilt on load, not persisted.
  EXPECT_EQ(Loaded->Prepack.size(), M.Prepack.size());
  ExecutionContext E2(*Loaded);
  std::vector<Tensor> After = E2.run(Inputs);
  ASSERT_EQ(Before.size(), After.size());
  for (size_t I = 0; I < Before.size(); ++I)
    for (int64_t J = 0; J < Before[I].numElements(); ++J)
      ASSERT_EQ(Before[I].at(J), After[I].at(J));
}

/// A weight-stationary model at batch \p Batch, the serving MLP's shape
/// class: request rows {Batch, 32} are transposed into columns, so every
/// MatMul is W[Out,In] x X[In,Batch], a narrow-N (N = Batch) problem.
/// Its activation operand is read in place at Batch <= 4 and packs at run
/// time above. Only the first layer carries a bias + relu.
Graph weightStationaryModel(int64_t Batch) {
  GraphBuilder B(19);
  NodeId X = B.transpose(B.input(Shape({Batch, 32})), {1, 0});
  NodeId W1 = B.weight(Shape({64, 32}));
  NodeId Bias = B.weight(Shape({64, 1}));
  NodeId H = B.relu(B.add(B.binary(OpKind::MatMul, W1, X), Bias));
  H = B.binary(OpKind::MatMul, B.weight(Shape({48, 64})), H);
  H = B.binary(OpKind::MatMul, B.weight(Shape({16, 48})), H);
  B.markOutput(B.transpose(H, {1, 0}));
  return B.take();
}

TEST(PrepackStore, WeightStationaryLayersTakeNarrowPackedRoute) {
  for (int64_t Batch : {1, 2, 4, 8}) {
    SCOPED_TRACE(formatString("batch %lld", static_cast<long long>(Batch)));
    CompiledModel M =
        cantFail(compileModel(weightStationaryModel(Batch), CompileOptions()));
    // The activation operand is the only candidate for packing: nothing
    // to prepack. Up to batch 4 the narrow-rows tile reads it in place,
    // so there is no pack scratch either; at batch 8 the scratch holds
    // the widest layer's 8-wide panel, so no call packs onto the heap.
    bool ReadsInPlace = Batch <= GemmNarrowRowsMaxN;
    EXPECT_TRUE(M.Prepack.empty());
    EXPECT_EQ(M.Memory.PackScratchBytes,
              ReadsInPlace ? 0
                           : packedPanelElems(64, Batch, GemmNarrowNR) *
                                 static_cast<int64_t>(sizeof(float)));

    ExecutionContext E(M);
    std::vector<Tensor> Inputs = randomInputs(M.G, 23);
    ExecutionStats Stats;
    std::vector<Tensor> Got = E.run(Inputs, &Stats);
    EXPECT_EQ(Stats.Engine.PackedKernelCalls, 3);
    EXPECT_EQ(Stats.Engine.DirectKernelCalls, 0);
    EXPECT_EQ(Stats.Engine.PrepackHits, 0);
    EXPECT_EQ(Stats.Engine.PrepackMisses, ReadsInPlace ? 0 : 3);
    // Three expression steps, the first layer's bias + relu among them.
    EXPECT_EQ(Stats.Engine.ProgramSteps, 3);

    CompileOptions Naive;
    Naive.Codegen.Kernels.UsePackedGemm = false;
    CompiledModel MNaive =
        cantFail(compileModel(weightStationaryModel(Batch), Naive));
    ExecutionContext ENaive(MNaive);
    ExecutionStats NaiveStats;
    std::vector<Tensor> Want = ENaive.run(Inputs, &NaiveStats);
    EXPECT_EQ(NaiveStats.Engine.DirectKernelCalls, 3);
    ASSERT_EQ(Want.size(), Got.size());
    for (size_t I = 0; I < Want.size(); ++I)
      for (int64_t J = 0; J < Want[I].numElements(); ++J)
        ASSERT_EQ(Want[I].at(J), Got[I].at(J)) << "output " << I << " elem "
                                               << J;
  }
}

TEST(PrepackStore, EmptyGemmProblemsCompileAndRun) {
  // M = 0 rows or N = 0 columns against constant weights, plain, batched
  // and transposed: every output is empty, and nothing is prepacked or
  // sized. Batches and B slices are products of leading dims, so an empty
  // [K, N] weight no longer divides by zero while prepacking.
  for (int64_t M : {0, 16})
    for (int64_t N : {0, 16}) {
      SCOPED_TRACE(testing::Message() << "M=" << M << " N=" << N);
      GraphBuilder B(5);
      NodeId X = B.input(Shape({M, 32}));
      NodeId X3 = B.input(Shape({2, M, 32}));
      B.markOutput(B.op(OpKind::MatMul, {X, B.weight(Shape({32, N}))}));
      B.markOutput(B.op(OpKind::MatMul, {X3, B.weight(Shape({2, 32, N}))}));
      B.markOutput(B.op(OpKind::Gemm, {X, B.weight(Shape({N, 32}))},
                        AttrMap().set("transB", 1)));
      Graph G = B.take();
      std::vector<Tensor> Inputs = randomInputs(G, 3);
      CompiledModel Model = cantFail(compileModel(std::move(G)));
      std::vector<Tensor> Out = ExecutionContext(Model).run(Inputs);
      ASSERT_EQ(Out.size(), 3u);
      EXPECT_EQ(Out[0].shape(), Shape({M, N}));
      EXPECT_EQ(Out[1].shape(), Shape({2, M, N}));
      EXPECT_EQ(Out[2].shape(), Shape({M, N}));
      if (M == 0 || N == 0) {
        EXPECT_TRUE(Model.Prepack.empty());
        EXPECT_EQ(Model.Memory.PackScratchBytes, 0);
      }
    }
}

//===----------------------------------------------------------------------===//
// Zoo-wide engine bit-identity
//===----------------------------------------------------------------------===//

TEST(EngineZooSweep, PackedAndNaivePathsAreBitIdenticalZooWide) {
  // For every zoo model, the default engine (packed kernels) must produce
  // exactly the bytes the naive Many-to-Many loops produce.
  for (const ModelZooEntry &Entry : modelZoo()) {
    Graph G = Entry.Build();
    std::vector<Tensor> Inputs = randomInputs(G, 42);

    CompileOptions Legacy;
    Legacy.Codegen.Kernels.UsePackedGemm = false;
    CompiledModel MLegacy = cantFail(compileModel(Entry.Build(), Legacy));
    ExecutionContext ELegacy(MLegacy);
    std::vector<Tensor> Want = ELegacy.run(Inputs);

    CompiledModel MDefault = cantFail(compileModel(std::move(G)));
    ExecutionContext EDefault(MDefault);
    ExecutionStats Stats;
    std::vector<Tensor> Got = EDefault.run(Inputs, &Stats);

    ASSERT_EQ(Want.size(), Got.size()) << Entry.Info.Name;
    for (size_t I = 0; I < Want.size(); ++I)
      for (int64_t J = 0; J < Want[I].numElements(); ++J)
        ASSERT_EQ(Want[I].at(J), Got[I].at(J))
            << Entry.Info.Name << " output " << I << " elem " << J;
    // The default engine must actually run compiled programs, and every
    // expression step, a GEMM's elementwise tail included, runs as one.
    EXPECT_GT(Stats.Engine.ProgramSteps, 0) << Entry.Info.Name;
    EXPECT_EQ(Stats.Engine.GemmEpilogueSteps, 0) << Entry.Info.Name;
    EXPECT_EQ(Stats.Engine.TreeWalkSteps, 0) << Entry.Info.Name;
  }
}

TEST(EngineZooSweep, PrepackedOperandsStartOnACacheLine) {
  // The AVX2 tile reads packed panels in 32-byte rows; a prepacked weight
  // that starts mid-line splits every other row across two lines.
  for (const ModelZooEntry &Entry : modelZoo()) {
    CompiledModel M = cantFail(compileModel(Entry.Build()));
    for (size_t I = 0; I < M.Prepack.size(); ++I)
      EXPECT_EQ(reinterpret_cast<uintptr_t>(M.Prepack[I].Data.data()) % 64,
                0u)
          << Entry.Info.Name << " prepack " << I;
  }
}

} // namespace
