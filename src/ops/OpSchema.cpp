//===- ops/OpSchema.cpp - Shape/FLOPs/mapping-type schema --------------------===//

#include "ops/OpSchema.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace dnnfusion;

//===----------------------------------------------------------------------===//
// Classification predicates
//===----------------------------------------------------------------------===//

bool dnnfusion::isElementwiseUnary(OpKind Kind) {
  switch (Kind) {
  case OpKind::Relu:
  case OpKind::LeakyRelu:
  case OpKind::Sigmoid:
  case OpKind::Tanh:
  case OpKind::Softplus:
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Abs:
  case OpKind::Square:
  case OpKind::Erf:
  case OpKind::Neg:
  case OpKind::Ceil:
  case OpKind::Floor:
  case OpKind::Round:
  case OpKind::Clip:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Asin:
  case OpKind::Not:
  case OpKind::Cast:
  case OpKind::BitShift:
  case OpKind::Identity:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isElementwiseBinary(OpKind Kind) {
  switch (Kind) {
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Pow:
  case OpKind::Maximum:
  case OpKind::Minimum:
  case OpKind::Greater:
  case OpKind::Equal:
  case OpKind::PRelu:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isElementwise(OpKind Kind) {
  return isElementwiseUnary(Kind) || isElementwiseBinary(Kind) ||
         Kind == OpKind::Where;
}

bool dnnfusion::isReduction(OpKind Kind) {
  switch (Kind) {
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd:
  case OpKind::GlobalAveragePool:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isAssociativeOp(OpKind Kind) {
  switch (Kind) {
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::Maximum:
  case OpKind::Minimum:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isCommutativeOp(OpKind Kind) {
  switch (Kind) {
  case OpKind::Add:
  case OpKind::Mul:
  case OpKind::Maximum:
  case OpKind::Minimum:
  case OpKind::Equal:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isRewriteRegionOp(OpKind Kind) {
  // Operators that appear in at least one mathematical-property rewrite
  // rule; everything else is a partition point for the matcher (§4.2).
  if (isElementwiseBinary(Kind))
    return Kind != OpKind::Greater && Kind != OpKind::Equal &&
           Kind != OpKind::PRelu;
  switch (Kind) {
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::Sqrt:
  case OpKind::Reciprocal:
  case OpKind::Abs:
  case OpKind::Square:
  case OpKind::Neg:
  case OpKind::BitShift:
  case OpKind::Identity:
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceProd:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isComputeIntensive(OpKind Kind) {
  switch (Kind) {
  case OpKind::Conv:
  case OpKind::ConvTranspose:
  case OpKind::MatMul:
  case OpKind::Gemm:
    return true;
  default:
    return false;
  }
}

bool dnnfusion::isDataMovement(OpKind Kind) {
  switch (Kind) {
  case OpKind::Concat:
  case OpKind::Slice:
  case OpKind::Identity:
  case OpKind::Expand:
  case OpKind::Gather:
  case OpKind::Resize:
  case OpKind::Upsample:
  case OpKind::Reshape:
  case OpKind::Flatten:
  case OpKind::Squeeze:
  case OpKind::Unsqueeze:
  case OpKind::Transpose:
  case OpKind::DepthToSpace:
  case OpKind::SpaceToDepth:
    return true;
  default:
    return false;
  }
}

Arity dnnfusion::opArity(OpKind Kind) {
  if (isElementwiseUnary(Kind))
    return {1, 1};
  if (isElementwiseBinary(Kind))
    return {2, 2};
  switch (Kind) {
  case OpKind::Input:
  case OpKind::Constant:
    return {0, 0};
  case OpKind::Where:
    return {3, 3};
  case OpKind::Concat:
    return {1, -1};
  case OpKind::BatchNormalization:
    return {5, 5};
  case OpKind::InstanceNormalization:
    return {3, 3};
  case OpKind::Conv:
  case OpKind::ConvTranspose:
  case OpKind::Gemm:
    return {2, 3};
  case OpKind::MatMul:
    return {2, 2};
  default:
    return {1, 1};
  }
}

//===----------------------------------------------------------------------===//
// Mapping type (Table 2)
//===----------------------------------------------------------------------===//

MappingType dnnfusion::staticMappingType(OpKind Kind) {
  if (isElementwise(Kind))
    return MappingType::OneToOne;
  switch (Kind) {
  case OpKind::Input:
  case OpKind::Constant:
  case OpKind::Concat:
  case OpKind::Slice:
  case OpKind::BatchNormalization:
    return MappingType::OneToOne;
  case OpKind::Expand:
  case OpKind::Gather:
  case OpKind::Resize:
  case OpKind::Upsample:
    return MappingType::OneToMany;
  case OpKind::Conv:
  case OpKind::ConvTranspose:
  case OpKind::MatMul:
  case OpKind::Gemm:
  case OpKind::MaxPool:
  case OpKind::AveragePool:
  case OpKind::GlobalAveragePool:
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd:
  case OpKind::Softmax:
  case OpKind::CumSum:
  case OpKind::InstanceNormalization:
    return MappingType::ManyToMany;
  case OpKind::Reshape:
  case OpKind::Flatten:
  case OpKind::Squeeze:
  case OpKind::Unsqueeze:
    return MappingType::Reorganize;
  case OpKind::Transpose:
  case OpKind::DepthToSpace:
  case OpKind::SpaceToDepth:
    return MappingType::Shuffle;
  default:
    return MappingType::OneToOne;
  }
}

MappingType dnnfusion::mappingType(OpKind Kind, const AttrMap &Attrs,
                                   const std::vector<Shape> &InputShapes) {
  (void)Attrs;
  // "Elementwise w/ broadcast" is One-to-Many (Table 2): some input element
  // feeds multiple output elements. When multiple input/output pairs have
  // different mapping types the more complex one wins (Table 2 footnote).
  if ((isElementwiseBinary(Kind) || Kind == OpKind::Where) &&
      InputShapes.size() >= 2) {
    for (size_t I = 1; I < InputShapes.size(); ++I)
      if (InputShapes[I] != InputShapes[0])
        return MappingType::OneToMany;
  }
  return staticMappingType(Kind);
}

//===----------------------------------------------------------------------===//
// Shape inference
//===----------------------------------------------------------------------===//

std::vector<int64_t> dnnfusion::spatialAttr(const AttrMap &Attrs,
                                            const std::string &Name,
                                            size_t Count, int64_t Default) {
  std::vector<int64_t> V = Attrs.getInts(Name);
  if (V.empty())
    V.assign(Count, Default);
  DNNF_CHECK(V.size() == Count, "attribute '%s' must have %zu entries",
             Name.c_str(), Count);
  return V;
}

namespace {

/// Resolves a possibly-negative axis against \p Rank.
int64_t normalizeAxis(int64_t Axis, int Rank) {
  if (Axis < 0)
    Axis += Rank;
  DNNF_CHECK(Axis >= 0 && Axis < Rank, "axis %lld out of range for rank %d",
             static_cast<long long>(Axis), Rank);
  return Axis;
}

Shape inferConvLike(const AttrMap &Attrs, const Shape &X,
                    const std::vector<int64_t> &Kernel, int64_t OutChannels) {
  size_t Sp = static_cast<size_t>(X.rank()) - 2;
  DNNF_CHECK(Kernel.size() == Sp, "kernel rank mismatch");
  std::vector<int64_t> Strides = spatialAttr(Attrs, "strides", Sp, 1);
  std::vector<int64_t> Pads = spatialAttr(Attrs, "pads", Sp, 0);
  std::vector<int64_t> Dilations = spatialAttr(Attrs, "dilations", Sp, 1);
  std::vector<int64_t> Dims = {X.dim(0), OutChannels};
  for (size_t I = 0; I < Sp; ++I) {
    int64_t In = X.dim(static_cast<int>(I) + 2);
    int64_t Eff = Dilations[I] * (Kernel[I] - 1) + 1;
    int64_t Out = (In + 2 * Pads[I] - Eff) / Strides[I] + 1;
    DNNF_CHECK(Out > 0, "non-positive conv/pool output extent");
    Dims.push_back(Out);
  }
  return Shape(std::move(Dims));
}

} // namespace

Shape dnnfusion::inferShape(OpKind Kind, const AttrMap &Attrs,
                            const std::vector<Shape> &In) {
  Arity A = opArity(Kind);
  DNNF_CHECK(static_cast<int>(In.size()) >= A.Min &&
                 (A.Max < 0 || static_cast<int>(In.size()) <= A.Max),
             "%s expects %d..%d inputs, got %zu", opKindName(Kind), A.Min,
             A.Max, In.size());

  if (isElementwiseUnary(Kind))
    return In[0];

  if (isElementwiseBinary(Kind))
    return Shape::broadcast(In[0], In[1]);

  switch (Kind) {
  case OpKind::Input:
  case OpKind::Constant:
    reportFatalErrorf("%s shapes are set explicitly, not inferred",
                      opKindName(Kind));

  case OpKind::Where:
    return Shape::broadcast(Shape::broadcast(In[0], In[1]), In[2]);

  case OpKind::Concat: {
    int64_t Axis = normalizeAxis(Attrs.requireInt("axis"), In[0].rank());
    std::vector<int64_t> Dims = In[0].dims();
    for (size_t I = 1; I < In.size(); ++I) {
      DNNF_CHECK(In[I].rank() == In[0].rank(), "Concat rank mismatch");
      for (int D = 0; D < In[0].rank(); ++D)
        if (D != Axis)
          DNNF_CHECK(In[I].dim(D) == In[0].dim(D),
                     "Concat non-axis dim mismatch");
      Dims[static_cast<size_t>(Axis)] += In[I].dim(static_cast<int>(Axis));
    }
    return Shape(std::move(Dims));
  }

  case OpKind::Slice: {
    const std::vector<int64_t> &Starts = Attrs.requireInts("starts");
    const std::vector<int64_t> &Ends = Attrs.requireInts("ends");
    const std::vector<int64_t> &Axes = Attrs.requireInts("axes");
    DNNF_CHECK(Starts.size() == Ends.size() && Starts.size() == Axes.size(),
               "Slice attribute arity mismatch");
    std::vector<int64_t> Dims = In[0].dims();
    for (size_t I = 0; I < Axes.size(); ++I) {
      int64_t Axis = normalizeAxis(Axes[I], In[0].rank());
      int64_t Extent = In[0].dim(static_cast<int>(Axis));
      int64_t S = std::clamp<int64_t>(
          Starts[I] < 0 ? Starts[I] + Extent : Starts[I], 0, Extent);
      int64_t E = std::clamp<int64_t>(Ends[I] < 0 ? Ends[I] + Extent : Ends[I],
                                      0, Extent);
      DNNF_CHECK(E >= S, "Slice produces negative extent on axis %lld",
                 static_cast<long long>(Axis));
      Dims[static_cast<size_t>(Axis)] = E - S;
    }
    return Shape(std::move(Dims));
  }

  case OpKind::BatchNormalization: {
    DNNF_CHECK(In[0].rank() >= 2, "BatchNormalization input must have rank>=2");
    int64_t C = In[0].dim(1);
    for (size_t I = 1; I < 5; ++I)
      DNNF_CHECK(In[I].rank() == 1 && In[I].dim(0) == C,
                 "BatchNormalization parameter %zu must be [C]", I);
    return In[0];
  }

  case OpKind::Expand: {
    Shape Target(Attrs.requireInts("shape"));
    return Shape::broadcast(In[0], Target);
  }

  case OpKind::Gather: {
    int64_t Axis = normalizeAxis(Attrs.getInt("axis", 0), In[0].rank());
    const std::vector<int64_t> &Indices = Attrs.requireInts("indices");
    for (int64_t Index : Indices)
      DNNF_CHECK(Index >= 0 && Index < In[0].dim(static_cast<int>(Axis)),
                 "Gather index %lld out of range",
                 static_cast<long long>(Index));
    std::vector<int64_t> Dims = In[0].dims();
    Dims[static_cast<size_t>(Axis)] = static_cast<int64_t>(Indices.size());
    return Shape(std::move(Dims));
  }

  case OpKind::Resize:
  case OpKind::Upsample: {
    const std::vector<int64_t> &Scales = Attrs.requireInts("scales");
    DNNF_CHECK(static_cast<int>(Scales.size()) == In[0].rank(),
               "Resize scales must cover every dimension");
    std::vector<int64_t> Dims = In[0].dims();
    for (size_t I = 0; I < Dims.size(); ++I) {
      DNNF_CHECK(Scales[I] >= 1, "Resize scale must be >= 1");
      Dims[I] *= Scales[I];
    }
    return Shape(std::move(Dims));
  }

  case OpKind::Conv: {
    const Shape &X = In[0], &W = In[1];
    DNNF_CHECK(X.rank() >= 3 && X.rank() <= 5, "Conv input must be 3-5D");
    DNNF_CHECK(W.rank() == X.rank(), "Conv weight rank mismatch");
    int64_t Group = Attrs.getInt("group", 1);
    DNNF_CHECK(X.dim(1) == W.dim(1) * Group,
               "Conv channel mismatch: X has %lld, W expects %lld * group %lld",
               static_cast<long long>(X.dim(1)),
               static_cast<long long>(W.dim(1)), static_cast<long long>(Group));
    std::vector<int64_t> Kernel(W.dims().begin() + 2, W.dims().end());
    if (In.size() == 3)
      DNNF_CHECK(In[2].rank() == 1 && In[2].dim(0) == W.dim(0),
                 "Conv bias must be [F]");
    return inferConvLike(Attrs, X, Kernel, W.dim(0));
  }

  case OpKind::ConvTranspose: {
    const Shape &X = In[0], &W = In[1];
    DNNF_CHECK(X.rank() == 4, "ConvTranspose supports 2-D only");
    DNNF_CHECK(W.rank() == 4 && W.dim(0) == X.dim(1),
               "ConvTranspose weight must be [C,F,kh,kw]");
    std::vector<int64_t> Strides = spatialAttr(Attrs, "strides", 2, 1);
    std::vector<int64_t> Pads = spatialAttr(Attrs, "pads", 2, 0);
    int64_t H = (X.dim(2) - 1) * Strides[0] - 2 * Pads[0] + W.dim(2);
    int64_t Wd = (X.dim(3) - 1) * Strides[1] - 2 * Pads[1] + W.dim(3);
    DNNF_CHECK(H > 0 && Wd > 0, "non-positive ConvTranspose output extent");
    if (In.size() == 3)
      DNNF_CHECK(In[2].rank() == 1 && In[2].dim(0) == W.dim(1),
                 "ConvTranspose bias must be [F]");
    return Shape({X.dim(0), W.dim(1), H, Wd});
  }

  case OpKind::MatMul: {
    const Shape &A = In[0], &B = In[1];
    DNNF_CHECK(A.rank() >= 2 && B.rank() >= 2, "MatMul inputs must be >=2D");
    int64_t M = A.dim(A.rank() - 2), K = A.dim(A.rank() - 1);
    DNNF_CHECK(B.dim(B.rank() - 2) == K, "MatMul inner dimension mismatch");
    int64_t N = B.dim(B.rank() - 1);
    Shape BatchA(std::vector<int64_t>(A.dims().begin(), A.dims().end() - 2));
    Shape BatchB(std::vector<int64_t>(B.dims().begin(), B.dims().end() - 2));
    Shape Batch = Shape::broadcast(BatchA, BatchB);
    std::vector<int64_t> Dims = Batch.dims();
    Dims.push_back(M);
    Dims.push_back(N);
    return Shape(std::move(Dims));
  }

  case OpKind::Gemm: {
    const Shape &A = In[0], &B = In[1];
    DNNF_CHECK(A.rank() == 2 && B.rank() == 2, "Gemm inputs must be 2D");
    bool TA = Attrs.getInt("transA", 0) != 0;
    bool TB = Attrs.getInt("transB", 0) != 0;
    int64_t M = TA ? A.dim(1) : A.dim(0);
    int64_t K = TA ? A.dim(0) : A.dim(1);
    int64_t Kb = TB ? B.dim(1) : B.dim(0);
    int64_t N = TB ? B.dim(0) : B.dim(1);
    DNNF_CHECK(K == Kb, "Gemm inner dimension mismatch");
    if (In.size() == 3)
      DNNF_CHECK(Shape::broadcastCompatible(In[2], Shape({M, N})),
                 "Gemm bias does not broadcast to output");
    return Shape({M, N});
  }

  case OpKind::MaxPool:
  case OpKind::AveragePool: {
    const Shape &X = In[0];
    DNNF_CHECK(X.rank() >= 3 && X.rank() <= 5, "Pool input must be 3-5D");
    const std::vector<int64_t> &Kernel = Attrs.requireInts("kernel");
    return inferConvLike(Attrs, X, Kernel, X.dim(1));
  }

  case OpKind::GlobalAveragePool: {
    const Shape &X = In[0];
    DNNF_CHECK(X.rank() >= 3, "GlobalAveragePool input must be >=3D");
    std::vector<int64_t> Dims = {X.dim(0), X.dim(1)};
    Dims.resize(static_cast<size_t>(X.rank()), 1);
    return Shape(std::move(Dims));
  }

  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd: {
    std::vector<int64_t> Axes = Attrs.requireInts("axes");
    bool KeepDims = Attrs.getInt("keepdims", 1) != 0;
    std::vector<bool> Reduced(static_cast<size_t>(In[0].rank()), false);
    for (int64_t Axis : Axes)
      Reduced[static_cast<size_t>(normalizeAxis(Axis, In[0].rank()))] = true;
    std::vector<int64_t> Dims;
    for (int D = 0; D < In[0].rank(); ++D) {
      if (!Reduced[static_cast<size_t>(D)])
        Dims.push_back(In[0].dim(D));
      else if (KeepDims)
        Dims.push_back(1);
    }
    return Shape(std::move(Dims));
  }

  case OpKind::Softmax:
  case OpKind::CumSum:
    (void)normalizeAxis(Attrs.getInt("axis", -1), In[0].rank());
    return In[0];

  case OpKind::InstanceNormalization: {
    DNNF_CHECK(In[0].rank() >= 3, "InstanceNormalization input must be >=3D");
    int64_t C = In[0].dim(1);
    for (size_t I = 1; I < 3; ++I)
      DNNF_CHECK(In[I].rank() == 1 && In[I].dim(0) == C,
                 "InstanceNormalization parameter %zu must be [C]", I);
    return In[0];
  }

  case OpKind::Reshape: {
    std::vector<int64_t> Target = Attrs.requireInts("shape");
    int64_t Known = 1;
    int Unknown = -1;
    for (size_t I = 0; I < Target.size(); ++I) {
      if (Target[I] == -1) {
        DNNF_CHECK(Unknown < 0, "Reshape allows a single -1");
        Unknown = static_cast<int>(I);
      } else {
        DNNF_CHECK(Target[I] > 0, "Reshape dims must be positive or -1");
        Known *= Target[I];
      }
    }
    int64_t Total = In[0].numElements();
    if (Unknown >= 0) {
      DNNF_CHECK(Total % Known == 0, "Reshape cannot infer -1 dimension");
      Target[static_cast<size_t>(Unknown)] = Total / Known;
    } else {
      DNNF_CHECK(Known == Total, "Reshape changes element count");
    }
    return Shape(std::move(Target));
  }

  case OpKind::Flatten: {
    int64_t Axis = Attrs.getInt("axis", 1);
    DNNF_CHECK(Axis >= 0 && Axis <= In[0].rank(), "Flatten axis out of range");
    int64_t Outer = 1, Inner = 1;
    for (int D = 0; D < In[0].rank(); ++D)
      (D < Axis ? Outer : Inner) *= In[0].dim(D);
    return Shape({Outer, Inner});
  }

  case OpKind::Squeeze: {
    std::vector<int64_t> Axes = Attrs.getInts("axes");
    std::vector<bool> Drop(static_cast<size_t>(In[0].rank()), false);
    if (Axes.empty()) {
      for (int D = 0; D < In[0].rank(); ++D)
        Drop[static_cast<size_t>(D)] = In[0].dim(D) == 1;
    } else {
      for (int64_t Axis : Axes) {
        int64_t D = normalizeAxis(Axis, In[0].rank());
        DNNF_CHECK(In[0].dim(static_cast<int>(D)) == 1,
                   "Squeeze axis %lld has extent != 1",
                   static_cast<long long>(D));
        Drop[static_cast<size_t>(D)] = true;
      }
    }
    std::vector<int64_t> Dims;
    for (int D = 0; D < In[0].rank(); ++D)
      if (!Drop[static_cast<size_t>(D)])
        Dims.push_back(In[0].dim(D));
    return Shape(std::move(Dims));
  }

  case OpKind::Unsqueeze: {
    std::vector<int64_t> Axes = Attrs.requireInts("axes");
    int OutRank = In[0].rank() + static_cast<int>(Axes.size());
    std::vector<bool> IsNew(static_cast<size_t>(OutRank), false);
    for (int64_t Axis : Axes) {
      int64_t D = Axis < 0 ? Axis + OutRank : Axis;
      DNNF_CHECK(D >= 0 && D < OutRank, "Unsqueeze axis out of range");
      DNNF_CHECK(!IsNew[static_cast<size_t>(D)], "duplicate Unsqueeze axis");
      IsNew[static_cast<size_t>(D)] = true;
    }
    std::vector<int64_t> Dims;
    int Src = 0;
    for (int D = 0; D < OutRank; ++D)
      Dims.push_back(IsNew[static_cast<size_t>(D)] ? 1 : In[0].dim(Src++));
    return Shape(std::move(Dims));
  }

  case OpKind::Transpose: {
    std::vector<int64_t> Perm = Attrs.requireInts("perm");
    DNNF_CHECK(static_cast<int>(Perm.size()) == In[0].rank(),
               "Transpose perm rank mismatch");
    std::vector<bool> Seen(Perm.size(), false);
    std::vector<int64_t> Dims(Perm.size());
    for (size_t I = 0; I < Perm.size(); ++I) {
      int64_t P = Perm[I];
      DNNF_CHECK(P >= 0 && P < In[0].rank() && !Seen[static_cast<size_t>(P)],
                 "Transpose perm is not a permutation");
      Seen[static_cast<size_t>(P)] = true;
      Dims[I] = In[0].dim(static_cast<int>(P));
    }
    return Shape(std::move(Dims));
  }

  case OpKind::DepthToSpace: {
    const Shape &X = In[0];
    int64_t B = Attrs.requireInt("blocksize");
    DNNF_CHECK(X.rank() == 4 && X.dim(1) % (B * B) == 0,
               "DepthToSpace requires NCHW with C divisible by blocksize^2");
    return Shape({X.dim(0), X.dim(1) / (B * B), X.dim(2) * B, X.dim(3) * B});
  }

  case OpKind::SpaceToDepth: {
    const Shape &X = In[0];
    int64_t B = Attrs.requireInt("blocksize");
    DNNF_CHECK(X.rank() == 4 && X.dim(2) % B == 0 && X.dim(3) % B == 0,
               "SpaceToDepth requires NCHW with H,W divisible by blocksize");
    return Shape({X.dim(0), X.dim(1) * B * B, X.dim(2) / B, X.dim(3) / B});
  }

  default:
    reportFatalErrorf("inferShape: unhandled operator %s", opKindName(Kind));
  }
}

//===----------------------------------------------------------------------===//
// FLOP counting
//===----------------------------------------------------------------------===//

int64_t dnnfusion::flopCount(OpKind Kind, const AttrMap &Attrs,
                             const std::vector<Shape> &In, const Shape &Out) {
  int64_t OutN = Out.numElements();
  if (isElementwiseUnary(Kind)) {
    // Table 4 accounting: one FLOP per element for every elementwise
    // operator. Pure data movement (Identity/Cast) costs nothing.
    if (Kind == OpKind::Identity || Kind == OpKind::Cast)
      return 0;
    return OutN;
  }
  if (isElementwiseBinary(Kind) || Kind == OpKind::Where)
    return OutN;

  switch (Kind) {
  case OpKind::Input:
  case OpKind::Constant:
  case OpKind::Concat:
  case OpKind::Slice:
  case OpKind::Expand:
  case OpKind::Gather:
  case OpKind::Resize:
  case OpKind::Upsample:
  case OpKind::Reshape:
  case OpKind::Flatten:
  case OpKind::Squeeze:
  case OpKind::Unsqueeze:
  case OpKind::Transpose:
  case OpKind::DepthToSpace:
  case OpKind::SpaceToDepth:
    return 0;

  case OpKind::BatchNormalization:
    return 2 * OutN; // One fused multiply-add with precomputed scale/shift.

  case OpKind::Conv: {
    const Shape &W = In[1];
    int64_t MacsPerOut = W.dim(1); // C/group.
    for (int D = 2; D < W.rank(); ++D)
      MacsPerOut *= W.dim(D);
    int64_t Flops = 2 * OutN * MacsPerOut;
    if (In.size() == 3)
      Flops += OutN;
    return Flops;
  }

  case OpKind::ConvTranspose: {
    const Shape &X = In[0], &W = In[1];
    int64_t Macs = X.numElements() * W.dim(1) * W.dim(2) * W.dim(3);
    int64_t Flops = 2 * Macs;
    if (In.size() == 3)
      Flops += OutN;
    return Flops;
  }

  case OpKind::MatMul: {
    int64_t K = In[0].dim(In[0].rank() - 1);
    return 2 * OutN * K;
  }

  case OpKind::Gemm: {
    bool TA = Attrs.getInt("transA", 0) != 0;
    int64_t K = TA ? In[0].dim(0) : In[0].dim(1);
    int64_t Flops = 2 * OutN * K;
    if (In.size() == 3)
      Flops += OutN;
    return Flops;
  }

  case OpKind::MaxPool:
  case OpKind::AveragePool: {
    int64_t KernelN = 1;
    for (int64_t K : Attrs.requireInts("kernel"))
      KernelN *= K;
    return OutN * KernelN;
  }

  case OpKind::GlobalAveragePool:
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd:
    // One FLOP per reduced input element (paper Table 4 footnote ¶).
    return In[0].numElements();

  case OpKind::Softmax:
    return 5 * OutN;

  case OpKind::CumSum:
    return OutN;

  case OpKind::InstanceNormalization:
    return 8 * OutN;

  default:
    reportFatalErrorf("flopCount: unhandled operator %s", opKindName(Kind));
  }
}
