//===- tests/test_ops.cpp - operator schema and kernel tests --------------------===//

#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
#include "ops/Scalars.h"
#include "tensor/TensorUtils.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace dnnfusion;

namespace {

Tensor runOp(OpKind Kind, const AttrMap &Attrs,
             const std::vector<const Tensor *> &Inputs) {
  std::vector<Shape> Shapes;
  for (const Tensor *T : Inputs)
    Shapes.push_back(T->shape());
  Tensor Out(inferShape(Kind, Attrs, Shapes));
  runRefKernel(Kind, Attrs, Inputs, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Table 2: mapping-type classification
//===----------------------------------------------------------------------===//

TEST(MappingTable2, RepresentativeClassifications) {
  EXPECT_EQ(staticMappingType(OpKind::Add), MappingType::OneToOne);
  EXPECT_EQ(staticMappingType(OpKind::Relu), MappingType::OneToOne);
  EXPECT_EQ(staticMappingType(OpKind::Concat), MappingType::OneToOne);
  EXPECT_EQ(staticMappingType(OpKind::Slice), MappingType::OneToOne);
  EXPECT_EQ(staticMappingType(OpKind::BatchNormalization),
            MappingType::OneToOne);
  EXPECT_EQ(staticMappingType(OpKind::Expand), MappingType::OneToMany);
  EXPECT_EQ(staticMappingType(OpKind::Gather), MappingType::OneToMany);
  EXPECT_EQ(staticMappingType(OpKind::Resize), MappingType::OneToMany);
  EXPECT_EQ(staticMappingType(OpKind::Conv), MappingType::ManyToMany);
  EXPECT_EQ(staticMappingType(OpKind::Gemm), MappingType::ManyToMany);
  EXPECT_EQ(staticMappingType(OpKind::Softmax), MappingType::ManyToMany);
  EXPECT_EQ(staticMappingType(OpKind::ReduceProd), MappingType::ManyToMany);
  EXPECT_EQ(staticMappingType(OpKind::Reshape), MappingType::Reorganize);
  EXPECT_EQ(staticMappingType(OpKind::Flatten), MappingType::Reorganize);
  EXPECT_EQ(staticMappingType(OpKind::Transpose), MappingType::Shuffle);
  EXPECT_EQ(staticMappingType(OpKind::DepthToSpace), MappingType::Shuffle);
}

TEST(MappingTable2, BroadcastLiftsToOneToMany) {
  AttrMap None;
  EXPECT_EQ(mappingType(OpKind::Add, None, {Shape({2, 3}), Shape({2, 3})}),
            MappingType::OneToOne);
  EXPECT_EQ(mappingType(OpKind::Add, None, {Shape({2, 3}), Shape({3})}),
            MappingType::OneToMany);
  EXPECT_EQ(mappingType(OpKind::Mul, None, {Shape({2, 3}), Shape({1})}),
            MappingType::OneToMany);
}

TEST(MappingTable2, EveryOperatorIsClassified) {
  for (int I = 0; I < NumOpKinds; ++I) {
    OpKind K = opKindFromIndex(I);
    MappingType MT = staticMappingType(K);
    EXPECT_GE(transformationImpedance(MT), 0);
    EXPECT_LE(mappingComplexity(MT), 4);
  }
}

//===----------------------------------------------------------------------===//
// Shape inference
//===----------------------------------------------------------------------===//

TEST(ShapeInference, Conv2d) {
  AttrMap A;
  A.set("strides", std::vector<int64_t>{2, 2});
  A.set("pads", std::vector<int64_t>{1, 1});
  Shape Out = inferShape(OpKind::Conv, A,
                         {Shape({1, 3, 8, 8}), Shape({16, 3, 3, 3})});
  EXPECT_EQ(Out, Shape({1, 16, 4, 4}));
}

TEST(ShapeInference, ConvGrouped) {
  AttrMap A;
  A.set("group", int64_t(4));
  Shape Out = inferShape(OpKind::Conv, A,
                         {Shape({1, 4, 5, 5}), Shape({4, 1, 3, 3})});
  EXPECT_EQ(Out, Shape({1, 4, 3, 3}));
}

TEST(ShapeInference, Conv3d) {
  Shape Out = inferShape(OpKind::Conv, AttrMap().set("pads",
                                                     std::vector<int64_t>{1, 1, 1}),
                         {Shape({1, 2, 4, 6, 6}), Shape({8, 2, 3, 3, 3})});
  EXPECT_EQ(Out, Shape({1, 8, 4, 6, 6}));
}

TEST(ShapeInference, ConvTranspose) {
  AttrMap A;
  A.set("strides", std::vector<int64_t>{2, 2});
  Shape Out = inferShape(OpKind::ConvTranspose, A,
                         {Shape({1, 4, 5, 5}), Shape({4, 8, 2, 2})});
  EXPECT_EQ(Out, Shape({1, 8, 10, 10}));
}

TEST(ShapeInference, MatMulBatchBroadcast) {
  Shape Out = inferShape(OpKind::MatMul, {},
                         {Shape({2, 1, 4, 5}), Shape({3, 5, 6})});
  EXPECT_EQ(Out, Shape({2, 3, 4, 6}));
}

TEST(ShapeInference, GemmTransposed) {
  AttrMap A;
  A.set("transA", int64_t(1)).set("transB", int64_t(1));
  EXPECT_EQ(inferShape(OpKind::Gemm, A, {Shape({5, 3}), Shape({4, 5})}),
            Shape({3, 4}));
}

TEST(ShapeInference, ReduceKeepDims) {
  AttrMap Keep;
  Keep.set("axes", std::vector<int64_t>{1}).set("keepdims", int64_t(1));
  EXPECT_EQ(inferShape(OpKind::ReduceSum, Keep, {Shape({2, 3, 4})}),
            Shape({2, 1, 4}));
  AttrMap Drop;
  Drop.set("axes", std::vector<int64_t>{-1}).set("keepdims", int64_t(0));
  EXPECT_EQ(inferShape(OpKind::ReduceMean, Drop, {Shape({2, 3, 4})}),
            Shape({2, 3}));
}

TEST(ShapeInference, ReshapeInfersMinusOne) {
  EXPECT_EQ(inferShape(OpKind::Reshape,
                       AttrMap().set("shape", std::vector<int64_t>{2, -1}),
                       {Shape({4, 3})}),
            Shape({2, 6}));
}

TEST(ShapeInference, SliceNegativeIndices) {
  AttrMap A;
  A.set("starts", std::vector<int64_t>{-2});
  A.set("ends", std::vector<int64_t>{1000});
  A.set("axes", std::vector<int64_t>{1});
  EXPECT_EQ(inferShape(OpKind::Slice, A, {Shape({2, 5})}), Shape({2, 2}));
}

TEST(ShapeInference, ConcatGatherTransposeDepthToSpace) {
  EXPECT_EQ(inferShape(OpKind::Concat, AttrMap().set("axis", int64_t(1)),
                       {Shape({2, 3}), Shape({2, 5})}),
            Shape({2, 8}));
  EXPECT_EQ(inferShape(OpKind::Gather,
                       AttrMap()
                           .set("axis", int64_t(0))
                           .set("indices", std::vector<int64_t>{2, 0, 2}),
                       {Shape({4, 5})}),
            Shape({3, 5}));
  EXPECT_EQ(inferShape(OpKind::Transpose,
                       AttrMap().set("perm", std::vector<int64_t>{2, 0, 1}),
                       {Shape({2, 3, 4})}),
            Shape({4, 2, 3}));
  EXPECT_EQ(inferShape(OpKind::DepthToSpace,
                       AttrMap().set("blocksize", int64_t(2)),
                       {Shape({1, 8, 3, 3})}),
            Shape({1, 2, 6, 6}));
}

TEST(ShapeInferenceDeath, MismatchesAbort) {
  EXPECT_DEATH(inferShape(OpKind::MatMul, {}, {Shape({2, 3}), Shape({4, 5})}),
               "inner dimension");
  EXPECT_DEATH(inferShape(OpKind::Conv, {},
                          {Shape({1, 3, 8, 8}), Shape({8, 4, 3, 3})}),
               "channel mismatch");
}

//===----------------------------------------------------------------------===//
// FLOP accounting (Table 4 conventions)
//===----------------------------------------------------------------------===//

TEST(FlopCount, ElementwiseIsOnePerElement) {
  Shape S({4, 8});
  EXPECT_EQ(flopCount(OpKind::Mul, {}, {S, S}, S), 32);
  EXPECT_EQ(flopCount(OpKind::Exp, {}, {S}, S), 32);
  EXPECT_EQ(flopCount(OpKind::BitShift, {}, {S}, S), 32);
}

TEST(FlopCount, ReductionIsOnePerInputElement) {
  AttrMap A;
  A.set("axes", std::vector<int64_t>{1});
  EXPECT_EQ(flopCount(OpKind::ReduceSum, A, {Shape({4, 8})}, Shape({4, 1})),
            32);
}

TEST(FlopCount, ConvAndMatMul) {
  AttrMap None;
  // Conv: 2 * out * Cg * k * k (+ out for bias).
  EXPECT_EQ(flopCount(OpKind::Conv, None,
                      {Shape({1, 3, 8, 8}), Shape({16, 3, 3, 3})},
                      Shape({1, 16, 6, 6})),
            2ll * 16 * 36 * 27);
  EXPECT_EQ(flopCount(OpKind::MatMul, None, {Shape({4, 5}), Shape({5, 6})},
                      Shape({4, 6})),
            2ll * 4 * 6 * 5);
  EXPECT_EQ(flopCount(OpKind::Transpose, None, {Shape({4, 5})}, Shape({5, 4})),
            0);
}

//===----------------------------------------------------------------------===//
// Elementwise kernels vs <cmath>
//===----------------------------------------------------------------------===//

struct UnaryCase {
  OpKind Kind;
  float (*Ref)(float);
};

class UnaryKernel : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryKernel, MatchesReferenceFunction) {
  UnaryCase C = GetParam();
  Rng R(11);
  Tensor In(Shape({3, 17}));
  fillRandom(In, R, 0.05f, 0.95f); // Domain-safe for Log/Sqrt/Asin.
  Tensor Out = runOp(C.Kind, {}, {&In});
  for (int64_t I = 0; I < In.numElements(); ++I)
    EXPECT_NEAR(Out.at(I), C.Ref(In.at(I)), 1e-5f) << opKindName(C.Kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnaryKernel,
    ::testing::Values(
        UnaryCase{OpKind::Relu, [](float X) { return X > 0 ? X : 0; }},
        UnaryCase{OpKind::Sigmoid,
                  [](float X) { return 1.0f / (1.0f + std::exp(-X)); }},
        UnaryCase{OpKind::Tanh, [](float X) { return std::tanh(X); }},
        UnaryCase{OpKind::Exp, [](float X) { return std::exp(X); }},
        UnaryCase{OpKind::Log, [](float X) { return std::log(X); }},
        UnaryCase{OpKind::Sqrt, [](float X) { return std::sqrt(X); }},
        UnaryCase{OpKind::Reciprocal, [](float X) { return 1.0f / X; }},
        UnaryCase{OpKind::Abs, [](float X) { return std::fabs(X); }},
        UnaryCase{OpKind::Square, [](float X) { return X * X; }},
        UnaryCase{OpKind::Erf, [](float X) { return std::erf(X); }},
        UnaryCase{OpKind::Neg, [](float X) { return -X; }},
        UnaryCase{OpKind::Ceil, [](float X) { return std::ceil(X); }},
        UnaryCase{OpKind::Floor, [](float X) { return std::floor(X); }},
        UnaryCase{OpKind::Sin, [](float X) { return std::sin(X); }},
        UnaryCase{OpKind::Cos, [](float X) { return std::cos(X); }},
        UnaryCase{OpKind::Asin, [](float X) { return std::asin(X); }}),
    [](const ::testing::TestParamInfo<UnaryCase> &Info) {
      return opKindName(Info.param.Kind);
    });

TEST(ElementwiseKernel, ClipAndLeakyReluParams) {
  Tensor In(Shape({5}));
  fillIota(In, -2.0f, 1.0f); // -2,-1,0,1,2
  Tensor Clipped =
      runOp(OpKind::Clip, AttrMap().set("min", -1.0).set("max", 1.0), {&In});
  EXPECT_EQ(Clipped.at(0), -1.0f);
  EXPECT_EQ(Clipped.at(4), 1.0f);
  EXPECT_EQ(Clipped.at(2), 0.0f);
  Tensor Leaky = runOp(OpKind::LeakyRelu, AttrMap().set("alpha", 0.5), {&In});
  EXPECT_EQ(Leaky.at(0), -1.0f);
  EXPECT_EQ(Leaky.at(4), 2.0f);
}

TEST(ElementwiseKernel, BitShiftIsExactPowerOfTwoScaling) {
  Tensor In(Shape({4}));
  fillIota(In, 1.0f, 1.0f);
  Tensor L = runOp(OpKind::BitShift,
                   AttrMap().set("bits", int64_t(3)).set("direction",
                                                         int64_t(0)),
                   {&In});
  EXPECT_EQ(L.at(2), 24.0f);
  Tensor Rt = runOp(OpKind::BitShift,
                    AttrMap().set("bits", int64_t(1)).set("direction",
                                                          int64_t(1)),
                    {&In});
  EXPECT_EQ(Rt.at(3), 2.0f);
}

TEST(ElementwiseKernel, BinaryBroadcast) {
  Tensor A(Shape({2, 3}));
  fillIota(A, 1.0f, 1.0f);
  Tensor B(Shape({3}));
  fillIota(B, 10.0f, 10.0f); // 10,20,30
  Tensor Out = runOp(OpKind::Add, {}, {&A, &B});
  EXPECT_EQ(Out.shape(), Shape({2, 3}));
  EXPECT_EQ(Out.at(0), 11.0f);
  EXPECT_EQ(Out.at(5), 36.0f);
}

TEST(ElementwiseKernel, WhereSelects) {
  Tensor C(Shape({4})), X = Tensor::full(Shape({4}), 1.0f),
                        Y = Tensor::full(Shape({4}), 2.0f);
  C.at(0) = 1;
  C.at(1) = 0;
  C.at(2) = 1;
  C.at(3) = 0;
  Tensor Out = runOp(OpKind::Where, {}, {&C, &X, &Y});
  EXPECT_EQ(Out.at(0), 1.0f);
  EXPECT_EQ(Out.at(1), 2.0f);
}

TEST(ElementwiseKernel, BatchNormMatchesFormula) {
  Rng R(3);
  Tensor X(Shape({1, 2, 2, 2})), S(Shape({2})), B(Shape({2})), M(Shape({2})),
      V(Shape({2}));
  fillRandom(X, R);
  fillRandomPositive(S, R);
  fillRandom(B, R);
  fillRandom(M, R);
  fillRandomPositive(V, R);
  Tensor Out = runOp(OpKind::BatchNormalization,
                     AttrMap().set("epsilon", 1e-5), {&X, &S, &B, &M, &V});
  for (int64_t C = 0; C < 2; ++C)
    for (int64_t I = 0; I < 4; ++I) {
      float Xv = X.at(C * 4 + I);
      float Expected = S.at(C) * (Xv - M.at(C)) /
                           std::sqrt(V.at(C) + 1e-5f) +
                       B.at(C);
      EXPECT_NEAR(Out.at(C * 4 + I), Expected, 1e-5f);
    }
}

//===----------------------------------------------------------------------===//
// Heavy kernels: cross-checked implementations
//===----------------------------------------------------------------------===//

TEST(ConvKernel, IdentityKernelPreservesInput) {
  // 1x1 kernel with identity weights on one channel copies the input.
  Tensor X(Shape({1, 1, 4, 4}));
  fillIota(X);
  Tensor W = Tensor::full(Shape({1, 1, 1, 1}), 1.0f);
  Tensor Out = runOp(OpKind::Conv, {}, {&X, &W});
  EXPECT_EQ(maxAbsDiff(Out.reshaped(X.shape()), X), 0.0f);
}

TEST(ConvKernel, MatchesIm2colMatMul) {
  // Property: conv == im2col + matmul on a random problem.
  Rng R(17);
  int64_t C = 3, F = 4, H = 6, W = 6, K = 3;
  Tensor X(Shape({1, C, H, W})), Wt(Shape({F, C, K, K}));
  fillRandom(X, R);
  fillRandom(Wt, R);
  Tensor Conv = runOp(OpKind::Conv, {}, {&X, &Wt});
  int64_t OH = H - K + 1, OW = W - K + 1;
  for (int64_t Fi = 0; Fi < F; ++Fi)
    for (int64_t Oh = 0; Oh < OH; ++Oh)
      for (int64_t Ow = 0; Ow < OW; ++Ow) {
        float Acc = 0;
        for (int64_t Ci = 0; Ci < C; ++Ci)
          for (int64_t Kh = 0; Kh < K; ++Kh)
            for (int64_t Kw = 0; Kw < K; ++Kw)
              Acc += X.at((Ci * H + Oh + Kh) * W + Ow + Kw) *
                     Wt.at(((Fi * C + Ci) * K + Kh) * K + Kw);
        EXPECT_NEAR(Conv.at((Fi * OH + Oh) * OW + Ow), Acc, 1e-4f);
      }
}

/// Conv by hand-written loops over any 1-3 spatial dims: every output
/// element is the bias plus every in-bounds dilated tap, summed in double.
/// Independent of the kernels' window code.
Tensor referenceConv(const Tensor &X, const Tensor &W, const AttrMap &Attrs,
                     const Shape &OutShape) {
  int Sp = X.shape().rank() - 2;
  std::vector<int64_t> S = Attrs.getInts("strides"), P = Attrs.getInts("pads"),
                       D = Attrs.getInts("dilations");
  int64_t Cg = W.shape().dim(1);
  int64_t Fg = W.shape().dim(0) / Attrs.getInt("group", 1);
  Tensor Out(OutShape);
  std::vector<int64_t> O, Kc;
  Shape KShape(std::vector<int64_t>(W.shape().dims().begin() + 2,
                                    W.shape().dims().end()));
  for (int64_t Flat = 0; Flat < Out.numElements(); ++Flat) {
    OutShape.unflatten(Flat, O);
    double Acc = 0.0;
    for (int64_t Ci = 0; Ci < Cg; ++Ci)
      for (int64_t Kk = 0; Kk < KShape.numElements(); ++Kk) {
        KShape.unflatten(Kk, Kc);
        int64_t XFlat = O[0] * X.shape().dim(1) + O[1] / Fg * Cg + Ci;
        bool In = true;
        for (int I = 0; I < Sp; ++I) {
          int64_t Pos = O[2 + I] * S[I] - P[I] + Kc[I] * D[I];
          In = In && Pos >= 0 && Pos < X.shape().dim(2 + I);
          XFlat = XFlat * X.shape().dim(2 + I) + Pos;
        }
        if (In)
          Acc += static_cast<double>(X.at(XFlat)) *
                 W.at((O[1] * Cg + Ci) * KShape.numElements() + Kk);
      }
    Out.at(Flat) = static_cast<float>(Acc);
  }
  return Out;
}

TEST(ConvKernel, Conv3dMatchesHandWrittenLoops) {
  Rng R(23);
  Tensor X(Shape({1, 2, 3, 4, 4})), W(Shape({2, 2, 2, 2, 2}));
  fillRandom(X, R);
  fillRandom(W, R);
  Tensor Out = runOp(OpKind::Conv, {}, {&X, &W});
  AttrMap Unit;
  Unit.set("strides", std::vector<int64_t>{1, 1, 1})
      .set("pads", std::vector<int64_t>{0, 0, 0})
      .set("dilations", std::vector<int64_t>{1, 1, 1});
  EXPECT_LT(maxAbsDiff(Out, referenceConv(X, W, Unit, Out.shape())), 1e-4f);
}

TEST(ConvKernel, Dilated3dConvMatchesHandWrittenLoopsOnBothPaths) {
  // Dilation 2 on every axis, padded and strided: the direct loop and the
  // im2col path (taken at group 1, where 8 filters share the columns)
  // must both honor the dilations that shape inference applied.
  Rng R(41);
  for (int64_t Group : {1, 4}) {
    Tensor X(Shape({2, 4, 7, 8, 9})), W(Shape({8, 4 / Group, 3, 3, 3}));
    fillRandom(X, R);
    fillRandom(W, R);
    AttrMap A;
    A.set("group", Group)
        .set("strides", std::vector<int64_t>{1, 2, 1})
        .set("pads", std::vector<int64_t>{1, 2, 0})
        .set("dilations", std::vector<int64_t>{2, 2, 2});
    Shape OutShape = inferShape(OpKind::Conv, A, {X.shape(), W.shape()});
    Tensor Want = referenceConv(X, W, A, OutShape);
    for (bool Packed : {false, true}) {
      KernelConfig Config;
      Config.UsePackedGemm = Packed;
      EngineCounters Counters;
      KernelRuntime Rt;
      Rt.Counters = &Counters;
      Tensor Got(OutShape);
      runRefKernel(OpKind::Conv, A, {&X, &W}, Got, Config, Rt);
      EXPECT_EQ(Counters.PackedKernelCalls, Packed && Group == 1 ? 1 : 0);
      EXPECT_LT(maxAbsDiff(Got, Want), 1e-4f)
          << "group " << Group << (Packed ? " packed" : " direct");
    }
  }
}

TEST(MatMulKernel, MatchesNaive) {
  Rng R(29);
  Tensor A(Shape({2, 4, 5})), B(Shape({2, 5, 3}));
  fillRandom(A, R);
  fillRandom(B, R);
  Tensor Out = runOp(OpKind::MatMul, {}, {&A, &B});
  for (int64_t Bi = 0; Bi < 2; ++Bi)
    for (int64_t I = 0; I < 4; ++I)
      for (int64_t J = 0; J < 3; ++J) {
        float Acc = 0;
        for (int64_t K = 0; K < 5; ++K)
          Acc += A.at((Bi * 4 + I) * 5 + K) * B.at((Bi * 5 + K) * 3 + J);
        EXPECT_NEAR(Out.at((Bi * 4 + I) * 3 + J), Acc, 1e-4f);
      }
}

TEST(MatMulKernel, GemmTransposesAgree) {
  Rng R(31);
  Tensor A(Shape({4, 5})), B(Shape({5, 3}));
  fillRandom(A, R);
  fillRandom(B, R);
  Tensor Plain = runOp(OpKind::Gemm, {}, {&A, &B});
  // Transposed copies must give the same product.
  Tensor At(Shape({5, 4})), Bt(Shape({3, 5}));
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t K = 0; K < 5; ++K)
      At.at(K * 4 + I) = A.at(I * 5 + K);
  for (int64_t K = 0; K < 5; ++K)
    for (int64_t J = 0; J < 3; ++J)
      Bt.at(J * 5 + K) = B.at(K * 3 + J);
  Tensor Trans = runOp(
      OpKind::Gemm, AttrMap().set("transA", int64_t(1)).set("transB", int64_t(1)),
      {&At, &Bt});
  EXPECT_LT(maxAbsDiff(Plain, Trans), 1e-4f);
}

TEST(MatMulKernel, GemmDimsAreProductsOfLeadingDims) {
  // MatMul: A [2, 1, M, 8] x B [3, 8, N] -> [2, 3, M, N]. Six batches over
  // three B slices; the two A batches share each slice, so 2M rows reuse
  // one. M = 0 and N = 0 leave the batch counts alone.
  for (int64_t M : {0, 5})
    for (int64_t N : {0, 7}) {
      Shape A({2, 1, M, 8}), B({3, 8, N});
      Shape Out = inferShape(OpKind::MatMul, {}, {A, B});
      GemmDims D = gemmDims(OpKind::MatMul, {}, A, B, Out);
      EXPECT_EQ(D.M, M);
      EXPECT_EQ(D.N, N);
      EXPECT_EQ(D.K, 8);
      EXPECT_EQ(D.Batches, 6);
      EXPECT_EQ(D.BSlices, 3);
      EXPECT_EQ(D.RowsPerSlice, 2 * M);
      EXPECT_EQ(D.bKStride(), N);
      EXPECT_EQ(D.bNStride(), 1);
    }
  // Gemm transA/transB: one problem with strided A and B.
  AttrMap T;
  T.set("transA", 1).set("transB", 1);
  GemmDims D = gemmDims(OpKind::Gemm, T, Shape({8, 5}), Shape({7, 8}),
                        Shape({5, 7}));
  EXPECT_EQ(D.Batches, 1);
  EXPECT_EQ(D.BSlices, 1);
  EXPECT_EQ(D.RowsPerSlice, 5);
  EXPECT_EQ(D.aRowStride(), 1);
  EXPECT_EQ(D.aColStride(), 5);
  EXPECT_EQ(D.bKStride(), 1);
  EXPECT_EQ(D.bNStride(), 8);
}

TEST(PoolKernel, MaxAndAverage) {
  Tensor X(Shape({1, 1, 4, 4}));
  fillIota(X); // 0..15
  AttrMap A;
  A.set("kernel", std::vector<int64_t>{2, 2});
  A.set("strides", std::vector<int64_t>{2, 2});
  Tensor Max = runOp(OpKind::MaxPool, A, {&X});
  EXPECT_EQ(Max.at(0), 5.0f);
  EXPECT_EQ(Max.at(3), 15.0f);
  Tensor Avg = runOp(OpKind::AveragePool, A, {&X});
  EXPECT_EQ(Avg.at(0), 2.5f);
}

TEST(PoolKernel, PaddedAverageDividesByValidCount) {
  Tensor X = Tensor::full(Shape({1, 1, 2, 2}), 4.0f);
  AttrMap A;
  A.set("kernel", std::vector<int64_t>{2, 2});
  A.set("pads", std::vector<int64_t>{1, 1});
  Tensor Avg = runOp(OpKind::AveragePool, A, {&X});
  // Corner windows see a single valid element: average must stay 4.
  EXPECT_EQ(Avg.at(0), 4.0f);
}

TEST(PoolKernel, DilatedWindowsMatchHandWrittenLoops) {
  // Dilation 2 in 1-, 2- and 3-D, padded and strided: every output is the
  // max or the mean of the in-bounds dilated taps.
  Rng R(43);
  for (int Sp = 1; Sp <= 3; ++Sp) {
    std::vector<int64_t> Dims = {2, 3};
    int64_t Taps = 1;
    for (int I = 0; I < Sp; ++I) {
      Dims.push_back(6 + 2 * I);
      Taps *= 3;
    }
    Tensor X{Shape(Dims)};
    fillRandom(X, R);
    AttrMap A;
    size_t USp = static_cast<size_t>(Sp);
    A.set("kernel", std::vector<int64_t>(USp, 3))
        .set("strides", std::vector<int64_t>(USp, 2))
        .set("pads", std::vector<int64_t>(USp, 1))
        .set("dilations", std::vector<int64_t>(USp, 2));
    for (OpKind Kind : {OpKind::MaxPool, OpKind::AveragePool}) {
      Tensor Got = runOp(Kind, A, {&X});
      std::vector<int64_t> O;
      for (int64_t Flat = 0; Flat < Got.numElements(); ++Flat) {
        Got.shape().unflatten(Flat, O);
        float Max = -INFINITY;
        double Sum = 0.0;
        int Valid = 0;
        for (int64_t Kk = 0; Kk < Taps; ++Kk) {
          int64_t Off = 0, Stride = 1, Rem = Kk;
          bool In = true;
          for (int I = Sp - 1; I >= 0; --I) {
            int64_t Pos = O[2 + I] * 2 - 1 + (Rem % 3) * 2;
            Rem /= 3;
            In = In && Pos >= 0 && Pos < Dims[2 + I];
            Off += Pos * Stride;
            Stride *= Dims[2 + I];
          }
          if (!In)
            continue;
          float V = X.at((O[0] * 3 + O[1]) * Stride + Off);
          Max = std::max(Max, V);
          Sum += V;
          ++Valid;
        }
        float Want = Kind == OpKind::MaxPool
                         ? Max
                         : static_cast<float>(Sum / Valid);
        EXPECT_NEAR(Got.at(Flat), Want, 1e-5f)
            << opKindName(Kind) << " " << Sp << "-D at " << Flat;
      }
    }
  }
}

TEST(ReduceKernel, SumMeanMaxProd) {
  Tensor X(Shape({2, 3}));
  fillIota(X, 1.0f, 1.0f); // 1..6
  AttrMap A;
  A.set("axes", std::vector<int64_t>{1}).set("keepdims", int64_t(0));
  EXPECT_EQ(runOp(OpKind::ReduceSum, A, {&X}).at(0), 6.0f);
  EXPECT_EQ(runOp(OpKind::ReduceMean, A, {&X}).at(1), 5.0f);
  EXPECT_EQ(runOp(OpKind::ReduceMax, A, {&X}).at(1), 6.0f);
  EXPECT_EQ(runOp(OpKind::ReduceMin, A, {&X}).at(0), 1.0f);
  EXPECT_EQ(runOp(OpKind::ReduceProd, A, {&X}).at(0), 6.0f);
}

TEST(ReduceKernel, MultiAxis) {
  Tensor X = Tensor::full(Shape({2, 3, 4}), 1.0f);
  AttrMap A;
  A.set("axes", std::vector<int64_t>{0, 2}).set("keepdims", int64_t(1));
  Tensor Out = runOp(OpKind::ReduceSum, A, {&X});
  EXPECT_EQ(Out.shape(), Shape({1, 3, 1}));
  EXPECT_EQ(Out.at(0), 8.0f);
}

TEST(SoftmaxKernel, RowsSumToOne) {
  Rng R(41);
  Tensor X(Shape({3, 7}));
  fillRandom(X, R, -5.0f, 5.0f);
  Tensor Out = runOp(OpKind::Softmax, AttrMap().set("axis", int64_t(-1)), {&X});
  for (int64_t Row = 0; Row < 3; ++Row) {
    float Sum = 0;
    for (int64_t J = 0; J < 7; ++J) {
      float V = Out.at(Row * 7 + J);
      EXPECT_GT(V, 0.0f);
      Sum += V;
    }
    EXPECT_NEAR(Sum, 1.0f, 1e-5f);
  }
}

TEST(CumSumKernel, PrefixAlongAxis) {
  Tensor X = Tensor::full(Shape({2, 4}), 1.0f);
  Tensor Out = runOp(OpKind::CumSum, AttrMap().set("axis", int64_t(1)), {&X});
  EXPECT_EQ(Out.at(3), 4.0f);
  EXPECT_EQ(Out.at(4), 1.0f);
}

TEST(DataKernel, SpaceToDepthInvertsDepthToSpace) {
  Rng R(43);
  Tensor X(Shape({1, 8, 4, 4}));
  fillRandom(X, R);
  AttrMap A;
  A.set("blocksize", int64_t(2));
  Tensor D2s = runOp(OpKind::DepthToSpace, A, {&X});
  Tensor Back = runOp(OpKind::SpaceToDepth, A, {&D2s});
  EXPECT_EQ(maxAbsDiff(Back, X), 0.0f);
}

TEST(DataKernel, TransposeTwiceIsIdentity) {
  Rng R(47);
  Tensor X(Shape({2, 3, 4}));
  fillRandom(X, R);
  AttrMap P1, P2;
  P1.set("perm", std::vector<int64_t>{2, 0, 1});
  P2.set("perm", std::vector<int64_t>{1, 2, 0});
  Tensor Y = runOp(OpKind::Transpose, P1, {&X});
  Tensor Z = runOp(OpKind::Transpose, P2, {&Y});
  EXPECT_EQ(maxAbsDiff(Z.reshaped(X.shape()), X), 0.0f);
}

TEST(DataKernel, ConcatOfSlicesReassembles) {
  Rng R(53);
  Tensor X(Shape({2, 6}));
  fillRandom(X, R);
  auto SliceAttr = [](int64_t S, int64_t E) {
    return AttrMap()
        .set("starts", std::vector<int64_t>{S})
        .set("ends", std::vector<int64_t>{E})
        .set("axes", std::vector<int64_t>{1});
  };
  Tensor A = runOp(OpKind::Slice, SliceAttr(0, 2), {&X});
  Tensor B = runOp(OpKind::Slice, SliceAttr(2, 6), {&X});
  Tensor Cat = runOp(OpKind::Concat, AttrMap().set("axis", int64_t(1)),
                     {&A, &B});
  EXPECT_EQ(maxAbsDiff(Cat, X), 0.0f);
}

TEST(DataKernel, GatherSelectsRows) {
  Tensor X(Shape({3, 2}));
  fillIota(X); // rows [0,1],[2,3],[4,5]
  Tensor Out = runOp(OpKind::Gather,
                     AttrMap()
                         .set("axis", int64_t(0))
                         .set("indices", std::vector<int64_t>{2, 0}),
                     {&X});
  EXPECT_EQ(Out.at(0), 4.0f);
  EXPECT_EQ(Out.at(2), 0.0f);
}

TEST(DataKernel, UpsampleNearestRepeats) {
  Tensor X(Shape({1, 1, 2, 2}));
  fillIota(X);
  Tensor Out = runOp(OpKind::Upsample,
                     AttrMap().set("scales", std::vector<int64_t>{1, 1, 2, 2}),
                     {&X});
  EXPECT_EQ(Out.shape(), Shape({1, 1, 4, 4}));
  EXPECT_EQ(Out.at(0), 0.0f);
  EXPECT_EQ(Out.at(1), 0.0f);
  EXPECT_EQ(Out.at(5), 0.0f);
  EXPECT_EQ(Out.at(10), 3.0f); // Bottom-right block repeats value 3.
}

TEST(InstanceNormKernel, NormalizesPerChannel) {
  Rng R(59);
  Tensor X(Shape({1, 2, 4, 4})), S = Tensor::full(Shape({2}), 1.0f),
                                 B = Tensor::zeros(Shape({2}));
  fillRandom(X, R, -3.0f, 3.0f);
  Tensor Out = runOp(OpKind::InstanceNormalization,
                     AttrMap().set("epsilon", 1e-5), {&X, &S, &B});
  for (int64_t C = 0; C < 2; ++C) {
    double Mean = 0;
    for (int64_t I = 0; I < 16; ++I)
      Mean += Out.at(C * 16 + I);
    EXPECT_NEAR(Mean / 16.0, 0.0, 1e-4);
  }
}

} // namespace
