//===- tests/GraphFuzz.cpp - Differential-testing subsystem --------------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// Generator design: a FuzzSpec is grown by "emitters", one per operator
// family. Each emitter picks operands from the already-generated pool,
// checks the structural preconditions of its operator (rank, divisibility,
// matching shapes), inserts any domain guards the operator needs (positive
// operands for Log/Sqrt/Div, bounded operands for Exp/Asin, squashed
// operands for Floor/Ceil/Round/Cast so those rounding discontinuities sit
// far from any value the graph can produce), and then appends the operator
// node. Comparison operators (Greater/Equal/Where/Not) stay unguarded:
// their discontinuity sits at an exact float tie between two computed
// tensors, which seeded continuous inputs hit with probability ~0; if a
// tie ever does flip under optimization, the sweep still shrinks it to a
// repro that makes the tie visible rather than silently masking it.
// Emitters
// that cannot fire against the current pool simply decline and the driver
// retries with another emitter, so generation never aborts.
//
// Two global guards keep every generated graph executable:
//  - an element cap per node (Concat/Expand/Resize/ConvTranspose chains
//    cannot blow up memory), and
//  - a per-node log10-magnitude estimate (chains of Square/Mul cannot reach
//    inf, which would poison reference-vs-optimized comparison).
//
//===----------------------------------------------------------------------===//

#include "GraphFuzz.h"

#include "ops/KernelRegistry.h"
#include "ops/OpSchema.h"
#include "runtime/ExecutionContext.h"
#include "runtime/InferenceSession.h"
#include "serialize/ModelSerializer.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "tensor/TensorUtils.h"

#include <unistd.h>

#include <cstring>

#include <algorithm>
#include <cmath>
#include <map>

namespace dnnfusion {
namespace testutil {

namespace {

/// Hard ceiling on the log10 magnitude estimate of any generated node.
constexpr float MagLimit = 10.0f;

/// Rough upper bound on log10(max |value|) of an operator's output given
/// bounds for its inputs. Only has to be conservative enough to keep
/// generated graphs clear of inf/NaN; tightness is irrelevant.
float estimateMag(OpKind K, const std::vector<float> &In) {
  float M0 = In.empty() ? 0.0f : In[0];
  float Mx = 0.0f;
  for (float M : In)
    Mx = std::max(Mx, M);
  switch (K) {
  case OpKind::Sigmoid:
  case OpKind::Tanh:
  case OpKind::Erf:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Asin:
  case OpKind::Not:
  case OpKind::Greater:
  case OpKind::Equal:
  case OpKind::Softmax:
    return 0.3f;
  case OpKind::Exp:
    return 0.5f; // Operand is always tanh-bounded by the emitter.
  case OpKind::Log:
    return 1.0f; // Operand is always >= ~0.2.
  case OpKind::Reciprocal:
  case OpKind::Div:
    return Mx + 0.8f; // Divisors are always >= ~0.2.
  case OpKind::Sqrt:
    return M0 / 2.0f;
  case OpKind::Square:
    return 2.0f * M0;
  case OpKind::Pow:
    return 2.0f * std::max(M0, 0.0f) + 0.4f; // Exponents stay in [0.5, 2].
  case OpKind::Mul:
  case OpKind::PRelu:
    return In.size() >= 2 ? In[0] + In[1] : 2.0f * M0;
  case OpKind::MatMul:
  case OpKind::Gemm:
  case OpKind::Conv:
  case OpKind::ConvTranspose:
    return (In.size() >= 2 ? In[0] + In[1] : M0) + 3.0f;
  case OpKind::ReduceSum:
  case OpKind::CumSum:
    return M0 + 4.0f;
  case OpKind::ReduceProd:
    return 0.3f; // Operand is always tanh-bounded by the emitter.
  case OpKind::BatchNormalization:
    return M0 + 1.0f; // Scale/var constants are range-restricted.
  case OpKind::InstanceNormalization:
    return 1.0f; // Output is normalized to the scale parameter's range.
  case OpKind::BitShift:
    return M0 + 1.0f; // At most 3 bits -> factor 8.
  default:
    // Add/Sub/Maximum/Minimum/Where/Clip, reductions that do not grow
    // values, pooling, and all pure data movement.
    return Mx + 0.35f;
  }
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

/// Generation state: the spec under construction plus per-node magnitude
/// estimates and the RNG that drives every decision.
class Gen {
public:
  Gen(uint64_t Seed, const FuzzConfig &Config) : Cfg(Config), R(Seed) {
    Spec.Seed = Seed;
  }

  FuzzSpec run();

private:
  const FuzzConfig &Cfg;
  Rng R;
  FuzzSpec Spec;
  std::vector<float> Mag;

  int numNodes() const { return static_cast<int>(Spec.Nodes.size()); }
  const Shape &shapeOf(int I) const {
    return Spec.Nodes[static_cast<size_t>(I)].OutShape;
  }

  int addInput(Shape S) {
    FuzzNode N;
    N.Kind = OpKind::Input;
    N.LeafShape = S;
    N.OutShape = std::move(S);
    Spec.Nodes.push_back(std::move(N));
    Mag.push_back(0.1f); // Inputs are filled from [0.2, 1.2].
    return numNodes() - 1;
  }

  int addConst(Shape S, float Lo, float Hi) {
    FuzzNode N;
    N.Kind = OpKind::Constant;
    N.LeafShape = S;
    N.OutShape = std::move(S);
    N.ConstLo = Lo;
    N.ConstHi = Hi;
    Spec.Nodes.push_back(std::move(N));
    Mag.push_back(std::log10(
        std::max({std::fabs(Lo), std::fabs(Hi), 1e-3f})));
    return numNodes() - 1;
  }

  int addScalar(float V) { return addConst(Shape({1}), V, V); }

  /// Appends an operator node. The caller guarantees structural validity
  /// (inferShape must succeed); this helper enforces the element cap and
  /// the magnitude ceiling, returning -1 without appending when either
  /// would be exceeded.
  int tryOp(OpKind K, std::vector<int> Inputs, AttrMap Attrs = {}) {
    std::vector<Shape> InShapes;
    std::vector<float> InMag;
    for (int I : Inputs) {
      InShapes.push_back(shapeOf(I));
      InMag.push_back(Mag[static_cast<size_t>(I)]);
    }
    Shape Out = inferShape(K, Attrs, InShapes);
    if (Out.numElements() > Cfg.MaxElementsPerNode)
      return -1;
    float M = estimateMag(K, InMag);
    if (M > MagLimit)
      return -1;
    FuzzNode N;
    N.Kind = K;
    N.Inputs = std::move(Inputs);
    N.Attrs = std::move(Attrs);
    N.OutShape = std::move(Out);
    Spec.Nodes.push_back(std::move(N));
    Mag.push_back(M);
    return numNodes() - 1;
  }

  /// Uniform pick over nodes satisfying \p Pred; -1 when none qualifies.
  template <typename Pred> int pickWhere(Pred P) {
    std::vector<int> Candidates;
    for (int I = 0; I < numNodes(); ++I)
      if (P(Spec.Nodes[static_cast<size_t>(I)]))
        Candidates.push_back(I);
    if (Candidates.empty())
      return -1;
    return Candidates[R.nextBelow(Candidates.size())];
  }

  /// Picks any value node, biased toward operator results so graphs grow
  /// deep rather than star-shaped.
  int pickValue() {
    if (R.nextBool(0.75f)) {
      int I = pickWhere([](const FuzzNode &N) { return !N.isLeaf(); });
      if (I >= 0)
        return I;
    }
    return pickWhere([](const FuzzNode &N) { return true; });
  }

  int pickWithShape(const Shape &S) {
    return pickWhere([&](const FuzzNode &N) { return N.OutShape == S; });
  }

  int pickWithRank(int Rank) {
    return pickWhere(
        [&](const FuzzNode &N) { return N.OutShape.rank() == Rank; });
  }

  // --- Domain guards (emitted as ordinary graph nodes) --------------------

  /// |X| + 0.25: strictly positive, bounded away from zero.
  int positive(int X) {
    int A = tryOp(OpKind::Abs, {X});
    if (A < 0)
      return -1;
    return tryOp(OpKind::Add, {A, addScalar(0.25f)});
  }

  /// tanh(X): bounded to (-1, 1).
  int bounded(int X) { return tryOp(OpKind::Tanh, {X}); }

  /// sigmoid(X)*0.35 + 0.1: confined to ~(0.1, 0.45) so trunc/floor/ceil/
  /// round can never sit on a discontinuity boundary.
  int squashed(int X) {
    int S = tryOp(OpKind::Sigmoid, {X});
    if (S < 0)
      return -1;
    int M = tryOp(OpKind::Mul, {S, addScalar(0.35f)});
    if (M < 0)
      return -1;
    return tryOp(OpKind::Add, {M, addScalar(0.1f)});
  }

  // --- Emitters -----------------------------------------------------------

  int emitSafeUnary() {
    static const OpKind Kinds[] = {
        OpKind::Relu, OpKind::Sigmoid, OpKind::Tanh,     OpKind::Softplus,
        OpKind::Abs,  OpKind::Erf,     OpKind::Neg,      OpKind::Identity,
        OpKind::Sin,  OpKind::Cos,     OpKind::Square};
    return tryOp(Kinds[R.nextBelow(std::size(Kinds))], {pickValue()});
  }

  int emitDomainUnary() {
    int X = pickValue();
    switch (R.nextBelow(4)) {
    case 0: {
      int P = positive(X);
      return P < 0 ? -1 : tryOp(OpKind::Log, {P});
    }
    case 1: {
      int P = positive(X);
      return P < 0 ? -1 : tryOp(OpKind::Sqrt, {P});
    }
    case 2: {
      int P = positive(X);
      return P < 0 ? -1 : tryOp(OpKind::Reciprocal, {P});
    }
    default: {
      int B = bounded(X);
      return B < 0 ? -1
                   : tryOp(R.nextBool() ? OpKind::Exp : OpKind::Asin, {B});
    }
    }
  }

  int emitDiscontinuousUnary() {
    int X = squashed(pickValue());
    if (X < 0)
      return -1;
    switch (R.nextBelow(4)) {
    case 0:
      return tryOp(OpKind::Ceil, {X});
    case 1:
      return tryOp(OpKind::Floor, {X});
    case 2:
      return tryOp(OpKind::Round, {X});
    default:
      return tryOp(OpKind::Cast, {X}, AttrMap().set("to", "i32"));
    }
  }

  int emitParamUnary() {
    int X = pickValue();
    switch (R.nextBelow(5)) {
    case 0:
      return tryOp(OpKind::LeakyRelu, {X},
                   AttrMap().set("alpha",
                                 static_cast<double>(R.nextFloatInRange(
                                     0.01f, 0.3f))));
    case 1: {
      double C = R.nextFloatInRange(0.3f, 1.5f);
      return tryOp(OpKind::Clip, {X},
                   AttrMap().set("min", -C).set("max", C));
    }
    case 2:
      return tryOp(OpKind::BitShift, {X},
                   AttrMap()
                       .set("bits", R.nextInRange(1, 3))
                       .set("direction", R.nextInRange(0, 1)));
    case 3:
      return tryOp(OpKind::Cast, {X}, AttrMap().set("to", "f32"));
    default:
      return tryOp(OpKind::Not, {X});
    }
  }

  int emitBinary() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    int Y = R.nextBool(0.8f) ? pickWithShape(S) : X;
    if (Y < 0)
      Y = X;
    static const OpKind Kinds[] = {OpKind::Add,     OpKind::Sub,
                                   OpKind::Mul,     OpKind::Maximum,
                                   OpKind::Minimum, OpKind::Greater,
                                   OpKind::Equal};
    return tryOp(Kinds[R.nextBelow(std::size(Kinds))], {X, Y});
  }

  int emitBroadcastBinary() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    Shape Small = R.nextBool() ? Shape({1})
                               : Shape({S.rank() > 0 ? S.dim(S.rank() - 1)
                                                     : 1});
    int W = addConst(Small, -0.6f, 0.6f);
    static const OpKind Kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                                   OpKind::Maximum, OpKind::Minimum};
    return tryOp(Kinds[R.nextBelow(std::size(Kinds))],
                 R.nextBool() ? std::vector<int>{X, W}
                              : std::vector<int>{W, X});
  }

  int emitDivPow() {
    int X = pickValue();
    if (R.nextBool()) {
      int Y = pickWithShape(shapeOf(X));
      int Den = positive(Y < 0 ? X : Y);
      return Den < 0 ? -1 : tryOp(OpKind::Div, {X, Den});
    }
    int Base = positive(X);
    if (Base < 0)
      return -1;
    static const float Expos[] = {0.5f, 1.0f, 2.0f, 1.5f};
    return tryOp(OpKind::Pow, {Base, addScalar(Expos[R.nextBelow(4)])});
  }

  int emitWherePRelu() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    if (R.nextBool()) {
      int Y = pickWithShape(S);
      if (Y < 0)
        Y = X;
      int Cond = tryOp(OpKind::Greater, {X, addConst(Shape({1}), 0.5f, 0.9f)});
      return Cond < 0 ? -1 : tryOp(OpKind::Where, {Cond, X, Y});
    }
    Shape SlopeShape = R.nextBool() || S.rank() == 0
                           ? Shape({1})
                           : Shape({S.dim(S.rank() - 1)});
    return tryOp(OpKind::PRelu, {X, addConst(SlopeShape, 0.05f, 0.3f)});
  }

  int emitConcatSlice() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    if (S.rank() == 0)
      return -1;
    if (R.nextBool()) {
      int Y = R.nextBool(0.6f) ? pickWithShape(S) : X;
      if (Y < 0)
        Y = X;
      int64_t Axis = R.nextInRange(0, S.rank() - 1);
      std::vector<int> Ins = {X, Y};
      if (R.nextBool(0.2f))
        Ins.push_back(X);
      return tryOp(OpKind::Concat, Ins, AttrMap().set("axis", Axis));
    }
    int64_t Axis = R.nextInRange(0, S.rank() - 1);
    int64_t Extent = S.dim(static_cast<int>(Axis));
    if (Extent < 2)
      return -1;
    int64_t Start = R.nextInRange(0, Extent - 1);
    int64_t End = R.nextInRange(Start + 1, Extent);
    bool Neg = R.nextBool(0.3f);
    return tryOp(OpKind::Slice, {X},
                 AttrMap()
                     .set("starts", std::vector<int64_t>{Start})
                     .set("ends", std::vector<int64_t>{End})
                     .set("axes", std::vector<int64_t>{
                                      Neg ? Axis - S.rank() : Axis}));
  }

  int emitNormalization() {
    bool Inst = R.nextBool(0.4f);
    int X = pickWhere([&](const FuzzNode &N) {
      return N.OutShape.rank() >= (Inst ? 3 : 2);
    });
    if (X < 0)
      return -1;
    int64_t C = shapeOf(X).dim(1);
    if (C > 64)
      return -1;
    int Scale = addConst(Shape({C}), 0.5f, 1.5f);
    int Bias = addConst(Shape({C}), -0.3f, 0.3f);
    AttrMap A;
    A.set("epsilon", 1e-3);
    if (Inst)
      return tryOp(OpKind::InstanceNormalization, {X, Scale, Bias}, A);
    int Mean = addConst(Shape({C}), -0.2f, 0.2f);
    int Var = addConst(Shape({C}), 0.2f, 1.0f);
    return tryOp(OpKind::BatchNormalization, {X, Scale, Bias, Mean, Var}, A);
  }

  int emitConv() {
    int X = pickWhere([](const FuzzNode &N) {
      int Rk = N.OutShape.rank();
      return Rk >= 3 && Rk <= 5 && N.OutShape.dim(1) <= 8;
    });
    if (X < 0)
      return -1;
    const Shape &S = shapeOf(X);
    int Spatial = S.rank() - 2;
    int64_t C = S.dim(1);
    int64_t MinSp = S.dim(2);
    for (int D = 3; D < S.rank(); ++D)
      MinSp = std::min(MinSp, S.dim(D));
    int64_t K = R.nextBool() && MinSp >= 3 ? 3 : 1;
    bool Depthwise = R.nextBool(0.25f) && C > 1;
    int64_t Group = Depthwise ? C : 1;
    int64_t F = Depthwise ? C : R.nextInRange(2, 4);
    std::vector<int64_t> WDims = {F, C / Group};
    for (int D = 0; D < Spatial; ++D)
      WDims.push_back(K);
    int W = addConst(Shape(WDims), -0.4f, 0.4f);
    AttrMap A;
    A.set("group", Group);
    int64_t Pad = K == 3 && R.nextBool() ? 1 : 0;
    if (Pad)
      A.set("pads", std::vector<int64_t>(static_cast<size_t>(Spatial), Pad));
    // Dilation 2 spreads a 3-tap window over 5 positions.
    if (K == 3 && MinSp + 2 * Pad >= 5 && R.nextBool(0.3f))
      A.set("dilations",
            std::vector<int64_t>(static_cast<size_t>(Spatial), 2));
    if (R.nextBool(0.3f) && MinSp >= K + 1)
      A.set("strides", std::vector<int64_t>(static_cast<size_t>(Spatial), 2));
    std::vector<int> Ins = {X, W};
    if (R.nextBool())
      Ins.push_back(addConst(Shape({F}), -0.2f, 0.2f));
    return tryOp(OpKind::Conv, Ins, A);
  }

  int emitConvTranspose() {
    int X = pickWhere([](const FuzzNode &N) {
      return N.OutShape.rank() == 4 && N.OutShape.dim(1) <= 8;
    });
    if (X < 0)
      return -1;
    int64_t C = shapeOf(X).dim(1);
    int64_t F = R.nextInRange(1, 3);
    int64_t K = R.nextInRange(2, 3);
    int64_t Stride = R.nextInRange(1, 2);
    int W = addConst(Shape({C, F, K, K}), -0.4f, 0.4f);
    AttrMap A;
    A.set("strides", std::vector<int64_t>{Stride, Stride});
    std::vector<int> Ins = {X, W};
    if (R.nextBool())
      Ins.push_back(addConst(Shape({F}), -0.2f, 0.2f));
    return tryOp(OpKind::ConvTranspose, Ins, A);
  }

  int emitMatMulGemm() {
    uint64_t Form = R.nextBelow(3);
    if (Form < 2) {
      int X = pickWhere(
          [](const FuzzNode &N) { return N.OutShape.rank() >= 2; });
      if (X < 0)
        return -1;
      const Shape &S = shapeOf(X);
      if (Form == 0) {
        int64_t K = S.dim(S.rank() - 1);
        int W = addConst(Shape({K, R.nextInRange(2, 5)}), -0.4f, 0.4f);
        return tryOp(OpKind::MatMul, {X, W});
      }
      // Weight-stationary: a constant [M, K] left operand against the
      // activation's [.., K, N] (broadcast over its batch dims), the
      // serving layers' shape class.
      int64_t K = S.dim(S.rank() - 2);
      int W = addConst(Shape({R.nextInRange(4, 16), K}), -0.4f, 0.4f);
      return tryOp(OpKind::MatMul, {W, X});
    }
    int X = pickWithRank(2);
    if (X < 0)
      return -1;
    const Shape &S = shapeOf(X);
    bool TA = R.nextBool(0.3f), TB = R.nextBool(0.3f);
    int64_t K = TA ? S.dim(0) : S.dim(1);
    int64_t N = R.nextInRange(2, 5);
    int W = addConst(TB ? Shape({N, K}) : Shape({K, N}), -0.4f, 0.4f);
    AttrMap A;
    A.set("transA", static_cast<int64_t>(TA));
    A.set("transB", static_cast<int64_t>(TB));
    std::vector<int> Ins = {X, W};
    if (R.nextBool())
      Ins.push_back(addConst(Shape({N}), -0.2f, 0.2f));
    return tryOp(OpKind::Gemm, Ins, A);
  }

  int emitPool() {
    int X = pickWhere([](const FuzzNode &N) {
      int Rk = N.OutShape.rank();
      if (Rk < 3 || Rk > 5)
        return false;
      for (int D = 2; D < Rk; ++D)
        if (N.OutShape.dim(D) < 2)
          return false;
      return true;
    });
    if (X < 0)
      return -1;
    const Shape &S = shapeOf(X);
    if (R.nextBool(0.25f))
      return tryOp(OpKind::GlobalAveragePool, {X});
    size_t Spatial = static_cast<size_t>(S.rank() - 2);
    int64_t MinSp = S.dim(2);
    for (int D = 3; D < S.rank(); ++D)
      MinSp = std::min(MinSp, S.dim(D));
    int64_t K = R.nextBool() && MinSp >= 3 ? 3 : 2;
    AttrMap A;
    A.set("kernel", std::vector<int64_t>(Spatial, K));
    if (R.nextBool())
      A.set("strides", std::vector<int64_t>(Spatial, 2));
    if (MinSp >= 2 * K - 1 && R.nextBool(0.3f))
      A.set("dilations", std::vector<int64_t>(Spatial, 2));
    return tryOp(R.nextBool() ? OpKind::MaxPool : OpKind::AveragePool, {X},
                 A);
  }

  int emitReduce() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    if (S.rank() == 0)
      return -1;
    switch (R.nextBelow(4)) {
    case 0: {
      static const OpKind Kinds[] = {OpKind::ReduceSum, OpKind::ReduceMean,
                                     OpKind::ReduceMax, OpKind::ReduceMin};
      std::vector<int64_t> Axes = {R.nextInRange(0, S.rank() - 1)};
      if (S.rank() > 1 && R.nextBool(0.3f)) {
        int64_t Second = R.nextInRange(0, S.rank() - 1);
        if (Second != Axes[0])
          Axes.push_back(Second);
      }
      return tryOp(Kinds[R.nextBelow(std::size(Kinds))], {X},
                   AttrMap()
                       .set("axes", Axes)
                       .set("keepdims", R.nextInRange(0, 1)));
    }
    case 1: {
      // Copy the rank: bounded() appends nodes, invalidating S.
      int Rank = S.rank();
      int B = bounded(X);
      return B < 0 ? -1
                   : tryOp(OpKind::ReduceProd, {B},
                           AttrMap()
                               .set("axes",
                                    std::vector<int64_t>{
                                        R.nextInRange(0, Rank - 1)})
                               .set("keepdims", R.nextInRange(0, 1)));
    }
    case 2:
      return tryOp(OpKind::CumSum, {X},
                   AttrMap().set("axis", R.nextInRange(0, S.rank() - 1)));
    default:
      return tryOp(OpKind::Softmax, {X},
                   AttrMap().set("axis", R.nextBool(0.3f)
                                             ? int64_t(-1)
                                             : R.nextInRange(0, S.rank() - 1)));
    }
  }

  int emitReorganize() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    switch (R.nextBelow(4)) {
    case 0: { // Reshape to a flat or refactored view.
      int64_t Total = S.numElements();
      std::vector<int64_t> Target;
      if (S.rank() > 0 && R.nextBool()) {
        Target = {-1, S.dim(S.rank() - 1)};
      } else if (R.nextBool()) {
        Target = {Total};
      } else {
        Target = S.dims();
        Target.insert(Target.begin() + static_cast<long>(R.nextBelow(
                          Target.size() + 1)),
                      1);
      }
      return tryOp(OpKind::Reshape, {X}, AttrMap().set("shape", Target));
    }
    case 1:
      return tryOp(OpKind::Flatten, {X},
                   AttrMap().set("axis", R.nextInRange(0, S.rank())));
    case 2: { // Unsqueeze, occasionally followed by a matching Squeeze.
      int64_t Axis = R.nextInRange(0, S.rank());
      int U = tryOp(OpKind::Unsqueeze, {X},
                    AttrMap().set("axes", std::vector<int64_t>{Axis}));
      if (U < 0 || R.nextBool(0.6f))
        return U;
      return tryOp(OpKind::Squeeze, {U},
                   AttrMap().set("axes", std::vector<int64_t>{Axis}));
    }
    default: { // Squeeze an existing extent-1 axis.
      for (int D = 0; D < S.rank(); ++D)
        if (S.dim(D) == 1)
          return tryOp(OpKind::Squeeze, {X},
                       AttrMap().set("axes", std::vector<int64_t>{D}));
      return -1;
    }
    }
  }

  int emitShuffle() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    switch (R.nextBelow(3)) {
    case 0: {
      if (S.rank() < 2)
        return -1;
      std::vector<int64_t> Perm(static_cast<size_t>(S.rank()));
      for (size_t D = 0; D < Perm.size(); ++D)
        Perm[D] = static_cast<int64_t>(D);
      for (size_t D = Perm.size(); D > 1; --D)
        std::swap(Perm[D - 1], Perm[R.nextBelow(D)]);
      return tryOp(OpKind::Transpose, {X}, AttrMap().set("perm", Perm));
    }
    case 1: {
      int Y = pickWhere([](const FuzzNode &N) {
        return N.OutShape.rank() == 4 && N.OutShape.dim(1) % 4 == 0;
      });
      return Y < 0 ? -1
                   : tryOp(OpKind::DepthToSpace, {Y},
                           AttrMap().set("blocksize", int64_t(2)));
    }
    default: {
      int Y = pickWhere([](const FuzzNode &N) {
        return N.OutShape.rank() == 4 && N.OutShape.dim(2) % 2 == 0 &&
               N.OutShape.dim(3) % 2 == 0;
      });
      return Y < 0 ? -1
                   : tryOp(OpKind::SpaceToDepth, {Y},
                           AttrMap().set("blocksize", int64_t(2)));
    }
    }
  }

  int emitOneToMany() {
    int X = pickValue();
    const Shape &S = shapeOf(X);
    switch (R.nextBelow(3)) {
    case 0: { // Expand by prepending a broadcast dimension.
      std::vector<int64_t> Target = S.dims();
      Target.insert(Target.begin(), 2);
      return tryOp(OpKind::Expand, {X}, AttrMap().set("shape", Target));
    }
    case 1: {
      if (S.rank() == 0)
        return -1;
      int64_t Axis = R.nextInRange(0, S.rank() - 1);
      int64_t Extent = S.dim(static_cast<int>(Axis));
      std::vector<int64_t> Indices(
          static_cast<size_t>(R.nextInRange(1, std::min<int64_t>(4, Extent))));
      for (int64_t &I : Indices)
        I = R.nextInRange(0, Extent - 1);
      return tryOp(OpKind::Gather, {X},
                   AttrMap().set("axis", Axis).set("indices", Indices));
    }
    default: {
      if (S.rank() == 0)
        return -1;
      std::vector<int64_t> Scales(static_cast<size_t>(S.rank()), 1);
      Scales[R.nextBelow(Scales.size())] = 2;
      return tryOp(R.nextBool() ? OpKind::Resize : OpKind::Upsample, {X},
                   AttrMap().set("scales", Scales));
    }
    }
  }

  /// Feeds a Not with a genuine 0/1 tensor when one exists.
  int emitBoolChain() {
    int X = pickWhere([](const FuzzNode &N) {
      return N.Kind == OpKind::Greater || N.Kind == OpKind::Equal ||
             N.Kind == OpKind::Not;
    });
    if (X < 0)
      return -1;
    return tryOp(OpKind::Not, {X});
  }
};

FuzzSpec Gen::run() {
  // Seed the pool. The 4-D input satisfies every NCHW precondition
  // (C % blocksize^2 == 0, even H/W); the others exercise low-rank paths.
  addInput(Shape({2, 4, 6, 6}));
  if (R.nextBool(0.7f))
    addInput(Shape({2, 3, 5}));
  if (R.nextBool(0.7f))
    addInput(Shape({3, 4}));

  using Emitter = int (Gen::*)();
  // Weighted table: cheap elementwise/shape ops dominate (as in real
  // models), but every family appears often enough that the whole OpKind
  // vocabulary is covered across a modest seed sweep.
  static const Emitter Emitters[] = {
      &Gen::emitSafeUnary,          &Gen::emitSafeUnary,
      &Gen::emitBinary,             &Gen::emitBinary,
      &Gen::emitBroadcastBinary,    &Gen::emitDomainUnary,
      &Gen::emitDiscontinuousUnary, &Gen::emitParamUnary,
      &Gen::emitDivPow,             &Gen::emitWherePRelu,
      &Gen::emitConcatSlice,        &Gen::emitNormalization,
      &Gen::emitConv,               &Gen::emitConvTranspose,
      &Gen::emitMatMulGemm,         &Gen::emitPool,
      &Gen::emitReduce,             &Gen::emitReorganize,
      &Gen::emitShuffle,            &Gen::emitOneToMany,
      &Gen::emitBoolChain,
  };

  int Ops = static_cast<int>(R.nextInRange(Cfg.MinOps, Cfg.MaxOps));
  for (int I = 0; I < Ops; ++I)
    for (int Attempt = 0; Attempt < 8; ++Attempt)
      if ((this->*Emitters[R.nextBelow(std::size(Emitters))])() >= 0)
        break;

  // Safety net: a graph must contain at least one operator.
  if (Spec.numOps() == 0)
    tryOp(OpKind::Relu, {0});

  // Mark up to four operator sinks as model outputs.
  std::vector<int> ConsumerCount(Spec.Nodes.size(), 0);
  for (const FuzzNode &N : Spec.Nodes)
    for (int In : N.Inputs)
      ++ConsumerCount[static_cast<size_t>(In)];
  int Marked = 0;
  for (int I = numNodes() - 1; I >= 0 && Marked < 4; --I) {
    FuzzNode &N = Spec.Nodes[static_cast<size_t>(I)];
    if (!N.isLeaf() && ConsumerCount[static_cast<size_t>(I)] == 0) {
      N.IsOutput = true;
      ++Marked;
    }
  }
  if (Marked == 0) {
    for (int I = numNodes() - 1; I >= 0; --I)
      if (!Spec.Nodes[static_cast<size_t>(I)].isLeaf()) {
        Spec.Nodes[static_cast<size_t>(I)].IsOutput = true;
        break;
      }
  }
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// FuzzSpec queries
//===----------------------------------------------------------------------===//

int FuzzSpec::numOps() const {
  int N = 0;
  for (const FuzzNode &Node : Nodes)
    N += Node.isLeaf() ? 0 : 1;
  return N;
}

int FuzzSpec::numOutputs() const {
  int N = 0;
  for (const FuzzNode &Node : Nodes)
    N += Node.IsOutput ? 1 : 0;
  return N;
}

bool FuzzSpec::contains(OpKind K) const {
  for (const FuzzNode &Node : Nodes)
    if (Node.Kind == K)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Public generator / builder / printer
//===----------------------------------------------------------------------===//

FuzzSpec generateSpec(uint64_t Seed, const FuzzConfig &Config) {
  return Gen(Seed, Config).run();
}

Graph buildGraph(const FuzzSpec &Spec) {
  Graph G;
  std::vector<NodeId> Ids(Spec.Nodes.size(), InvalidNodeId);
  for (size_t I = 0; I < Spec.Nodes.size(); ++I) {
    const FuzzNode &N = Spec.Nodes[I];
    switch (N.Kind) {
    case OpKind::Input:
      Ids[I] = G.addInput(N.LeafShape);
      break;
    case OpKind::Constant: {
      Tensor T(N.LeafShape);
      // Deterministic per-node fill: rebuilding the same spec always
      // produces bit-identical weights.
      Rng R(Spec.Seed ^ (0x9e3779b97f4a7c15ull * (I + 1)));
      if (N.ConstLo == N.ConstHi) {
        for (int64_t E = 0; E < T.numElements(); ++E)
          T.at(E) = N.ConstLo;
      } else {
        fillRandom(T, R, N.ConstLo, N.ConstHi);
      }
      Ids[I] = G.addConstant(std::move(T));
      break;
    }
    default: {
      std::vector<NodeId> Ins;
      for (int In : N.Inputs)
        Ins.push_back(Ids[static_cast<size_t>(In)]);
      Ids[I] = G.addOp(N.Kind, std::move(Ins), N.Attrs);
      break;
    }
    }
    if (N.IsOutput)
      G.markOutput(Ids[I]);
  }
  return G;
}

namespace {

std::string shapeCode(const Shape &S) {
  std::vector<std::string> Dims;
  for (int64_t D : S.dims())
    Dims.push_back(formatString("%lld", static_cast<long long>(D)));
  return "Shape({" + joinStrings(Dims, ", ") + "})";
}

std::string attrValueCode(const AttrValue &V) {
  if (const auto *I = std::get_if<int64_t>(&V))
    return formatString("int64_t(%lld)", static_cast<long long>(*I));
  if (const auto *D = std::get_if<double>(&V))
    return formatString("%g", *D);
  if (const auto *L = std::get_if<std::vector<int64_t>>(&V)) {
    std::vector<std::string> Parts;
    for (int64_t E : *L)
      Parts.push_back(formatString("%lld", static_cast<long long>(E)));
    return "std::vector<int64_t>{" + joinStrings(Parts, ", ") + "}";
  }
  return "\"" + std::get<std::string>(V) + "\"";
}

std::string attrsCode(const AttrMap &Attrs) {
  std::string Out = "AttrMap()";
  for (const auto &[Name, Value] : Attrs.entries())
    Out += ".set(\"" + Name + "\", " + attrValueCode(Value) + ")";
  return Out;
}

} // namespace

std::string toBuilderCode(const FuzzSpec &Spec) {
  std::string Out = formatString(
      "// GraphFuzz seed %llu: %zu nodes (%d operators, %d outputs)\n",
      static_cast<unsigned long long>(Spec.Seed), Spec.Nodes.size(),
      Spec.numOps(), Spec.numOutputs());
  Out += formatString("GraphBuilder B(%llu);\n",
                      static_cast<unsigned long long>(Spec.Seed));
  for (size_t I = 0; I < Spec.Nodes.size(); ++I) {
    const FuzzNode &N = Spec.Nodes[I];
    switch (N.Kind) {
    case OpKind::Input:
      Out += formatString("NodeId N%zu = B.input(%s);\n", I,
                          shapeCode(N.LeafShape).c_str());
      break;
    case OpKind::Constant:
      if (N.ConstLo == N.ConstHi) {
        Out += formatString("NodeId N%zu = B.scalar(%gf);", I,
                            static_cast<double>(N.ConstLo));
        if (N.LeafShape.numElements() != 1)
          Out += formatString("  // NOTE: shape %s filled with %g",
                              N.LeafShape.toString().c_str(),
                              static_cast<double>(N.ConstLo));
        Out += "\n";
      } else if (N.ConstLo >= 0.0f) {
        // Positive-only fill: B.weight would produce a symmetric (possibly
        // negative) domain and break Sqrt/Div/variance-style operands.
        Out += formatString(
            "NodeId N%zu = B.positiveWeight(%s, %gf);  // uniform [%g, %g]\n",
            I, shapeCode(N.LeafShape).c_str(),
            static_cast<double>(N.ConstHi), static_cast<double>(N.ConstLo),
            static_cast<double>(N.ConstHi));
      } else {
        Out += formatString(
            "NodeId N%zu = B.weight(%s, %gf);  // uniform [%g, %g]\n", I,
            shapeCode(N.LeafShape).c_str(),
            static_cast<double>(
                std::max(std::fabs(N.ConstLo), std::fabs(N.ConstHi))),
            static_cast<double>(N.ConstLo), static_cast<double>(N.ConstHi));
      }
      break;
    default: {
      std::vector<std::string> Ins;
      for (int In : N.Inputs)
        Ins.push_back(formatString("N%d", In));
      Out += formatString("NodeId N%zu = B.op(OpKind::%s, {%s}", I,
                          opKindName(N.Kind),
                          joinStrings(Ins, ", ").c_str());
      if (!(N.Attrs == AttrMap()))
        Out += ", " + attrsCode(N.Attrs);
      Out += ");\n";
      break;
    }
    }
  }
  for (size_t I = 0; I < Spec.Nodes.size(); ++I)
    if (Spec.Nodes[I].IsOutput)
      Out += formatString("B.markOutput(N%zu);\n", I);
  return Out;
}

//===----------------------------------------------------------------------===//
// Differential execution
//===----------------------------------------------------------------------===//

const std::vector<DiffConfig> &defaultConfigMatrix() {
  static const std::vector<DiffConfig> Matrix = [] {
    std::vector<DiffConfig> M;
    {
      // The full pipeline includes the fused attention kernel, whose
      // online softmax is the repo's one deliberate bit-identity
      // relaxation — it carries the documented fused-path tolerance
      // explicitly rather than inheriting the call-wide default.
      DiffConfig C;
      C.Name = "full";
      C.RelTol = 2e-3f;
      C.AbsTol = 2e-3f;
      M.push_back(C);
    }
    {
      DiffConfig C;
      C.Name = "fusion-only";
      C.Options.EnableGraphRewriting = false;
      M.push_back(C);
    }
    {
      DiffConfig C;
      C.Name = "rewrite-only";
      C.Options.EnableFusion = false;
      C.Options.EnableOtherOpts = false;
      M.push_back(C);
    }
    {
      DiffConfig C;
      C.Name = "no-other-opts";
      C.Options.EnableOtherOpts = false;
      M.push_back(C);
    }
    {
      // Engine dimension, packed-vs-naive: same full pipeline with the
      // Many-to-Many kernels pinned to the naive loops instead of the
      // packed register-blocked engine. Must be bit-identical to "full"
      // (same per-element k-order accumulation).
      DiffConfig C;
      C.Name = "naive-gemm";
      C.Options.Codegen.Kernels.UsePackedGemm = false;
      C.RelTol = 2e-3f;
      C.AbsTol = 2e-3f;
      C.BitIdenticalTo = "full";
      M.push_back(C);
    }
    {
      // Transformer-fusion dimension: attention/layernorm carving off, so
      // matched subgraphs run through the ordinary decomposed steps. This
      // is the retained reference path for the fused kernels; it carries
      // no fused-path relaxation of its own.
      DiffConfig C;
      C.Name = "unfused-attention";
      C.Options.Codegen.FuseAttention = false;
      C.Options.Codegen.FuseNorm = false;
      M.push_back(C);
    }
    {
      // Kernel-tier dimension, forced scalar: every dispatched kernel
      // pinned to the portable tier. "full" auto-resolves to avx2 on AVX2
      // hosts, and that tier
      // multiplies and adds in separate roundings in the same per-element
      // k-order as scalar — so scalar-vs-SIMD must be bit-identical, not
      // merely close. This is the zoo-wide SIMD correctness oracle.
      DiffConfig C;
      C.Name = "forced-scalar";
      C.Options.Codegen.Kernels.ForceKernelLevel = 0;
      C.RelTol = 2e-3f;
      C.AbsTol = 2e-3f;
      C.BitIdenticalTo = "full";
      M.push_back(C);
    }
    {
      // Kernel-tier dimension, forced avx2: the bit-exact SIMD tier
      // explicitly requested (clamps down to scalar on hosts without AVX2,
      // which is also bit-identical). Distinct from "full" in that it
      // exercises the forced-dispatch resolution path, not auto.
      DiffConfig C;
      C.Name = "forced-simd";
      C.Options.Codegen.Kernels.ForceKernelLevel = 1;
      C.RelTol = 2e-3f;
      C.AbsTol = 2e-3f;
      C.BitIdenticalTo = "full";
      M.push_back(C);
    }
    return M;
  }();
  return Matrix;
}

namespace {

std::vector<Tensor> specInputs(const FuzzSpec &Spec) {
  // Positive-safe domain, mirroring testutil::randomInputs.
  Rng R(Spec.Seed ^ 0x5eedf00d5eedf00dull);
  std::vector<Tensor> Inputs;
  for (const FuzzNode &N : Spec.Nodes) {
    if (N.Kind != OpKind::Input)
      continue;
    Tensor T(N.LeafShape);
    fillRandom(T, R, 0.2f, 1.2f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

std::vector<Tensor> runPipeline(const FuzzSpec &Spec,
                                const CompileOptions &Options,
                                const std::vector<Tensor> &Inputs) {
  CompiledModel M = cantFail(compileModel(buildGraph(Spec), Options));
  ExecutionContext E(M);
  return E.run(Inputs);
}

} // namespace

std::optional<std::string> compareOutputs(const std::vector<Tensor> &Ref,
                                          const std::vector<Tensor> &Opt,
                                          float RelTol, float AbsTol) {
  if (Ref.size() != Opt.size())
    return formatString(
        "output count mismatch: optimized %zu vs reference %zu", Opt.size(),
        Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    if (!allClose(Opt[I], Ref[I], RelTol, AbsTol))
      return formatString("output %zu (shape %s) diverges: max abs diff %g",
                          I, Ref[I].shape().toString().c_str(),
                          static_cast<double>(maxAbsDiff(Opt[I], Ref[I])));
  return std::nullopt;
}

std::optional<DiffFailure>
runDifferential(const FuzzSpec &Spec, const std::vector<DiffConfig> &Configs,
                float RelTol, float AbsTol) {
  std::vector<Tensor> Inputs = specInputs(Spec);

  CompileOptions RefOpt;
  RefOpt.EnableGraphRewriting = false;
  RefOpt.EnableFusion = false;
  RefOpt.EnableOtherOpts = false;
  std::vector<Tensor> Ref = runPipeline(Spec, RefOpt, Inputs);

  // Every config is compared against the unoptimized reference at its own
  // tolerance (per-config fields override the call-wide defaults — exact
  // configs stay strict, fused-path configs carry the documented
  // relaxation). Configs naming a BitIdenticalTo baseline additionally
  // must match that earlier config's outputs bit-for-bit: kernel path
  // (packed vs naive) and kernel tier (scalar vs avx2) are exact
  // dimensions.
  std::map<std::string, std::vector<Tensor>> ByName;
  for (const DiffConfig &Config : Configs) {
    std::vector<Tensor> Opt = runPipeline(Spec, Config.Options, Inputs);
    float Rel = Config.RelTol >= 0.0f ? Config.RelTol : RelTol;
    float Abs = Config.AbsTol >= 0.0f ? Config.AbsTol : AbsTol;
    if (std::optional<std::string> Diff = compareOutputs(Ref, Opt, Rel, Abs))
      return DiffFailure{Config.Name, *Diff};
    if (!Config.BitIdenticalTo.empty()) {
      auto Base = ByName.find(Config.BitIdenticalTo);
      if (Base == ByName.end())
        return DiffFailure{Config.Name,
                           formatString("bit-identity baseline '%s' not run "
                                        "before this config",
                                        Config.BitIdenticalTo.c_str())};
      if (std::optional<std::string> Diff =
              compareOutputs(Base->second, Opt, 0.0f, 0.0f))
        return DiffFailure{formatString("%s vs %s (bit-identity)",
                                        Config.BitIdenticalTo.c_str(),
                                        Config.Name.c_str()),
                           *Diff};
    }
    ByName.emplace(Config.Name, std::move(Opt));
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

/// Drops every node unreachable from the outputs and compacts indices.
FuzzSpec gcSpec(const FuzzSpec &Spec) {
  size_t N = Spec.Nodes.size();
  std::vector<char> Keep(N, 0);
  std::vector<int> Stack;
  for (size_t I = 0; I < N; ++I)
    if (Spec.Nodes[I].IsOutput)
      Stack.push_back(static_cast<int>(I));
  while (!Stack.empty()) {
    int I = Stack.back();
    Stack.pop_back();
    if (Keep[static_cast<size_t>(I)])
      continue;
    Keep[static_cast<size_t>(I)] = 1;
    for (int In : Spec.Nodes[static_cast<size_t>(I)].Inputs)
      Stack.push_back(In);
  }
  FuzzSpec Out;
  Out.Seed = Spec.Seed;
  std::vector<int> Remap(N, -1);
  for (size_t I = 0; I < N; ++I) {
    if (!Keep[I])
      continue;
    FuzzNode Node = Spec.Nodes[I];
    for (int &In : Node.Inputs)
      In = Remap[static_cast<size_t>(In)];
    Remap[I] = static_cast<int>(Out.Nodes.size());
    Out.Nodes.push_back(std::move(Node));
  }
  return Out;
}

/// Rewires every use of node \p From (indices into \p Spec) to \p To and
/// transfers the output flag; returns the garbage-collected result.
FuzzSpec bypassNode(const FuzzSpec &Spec, int From, int To) {
  FuzzSpec Out = Spec;
  for (FuzzNode &N : Out.Nodes)
    for (int &In : N.Inputs)
      if (In == From)
        In = To;
  if (Out.Nodes[static_cast<size_t>(From)].IsOutput) {
    Out.Nodes[static_cast<size_t>(From)].IsOutput = false;
    Out.Nodes[static_cast<size_t>(To)].IsOutput = true;
  }
  return gcSpec(Out);
}

} // namespace

FuzzSpec shrinkSpec(const FuzzSpec &Spec, const FailPredicate &StillFails) {
  FuzzSpec Cur = Spec;
  {
    FuzzSpec Gc = gcSpec(Cur);
    if (Gc.Nodes.size() < Cur.Nodes.size() && StillFails(Gc))
      Cur = std::move(Gc);
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;

    // (a) Drop extra outputs, one at a time.
    while (Cur.numOutputs() > 1) {
      bool Dropped = false;
      for (size_t I = 0; I < Cur.Nodes.size() && !Dropped; ++I) {
        if (!Cur.Nodes[I].IsOutput)
          continue;
        FuzzSpec Candidate = Cur;
        Candidate.Nodes[I].IsOutput = false;
        Candidate = gcSpec(Candidate);
        if (StillFails(Candidate)) {
          Cur = std::move(Candidate);
          Changed = Dropped = true;
        }
      }
      if (!Dropped)
        break;
    }

    // (b) Bypass operators with a same-shape input (late nodes first so
    // whole suffixes can go in one accepted reduction).
    for (int I = static_cast<int>(Cur.Nodes.size()) - 1; I >= 0; --I) {
      const FuzzNode &N = Cur.Nodes[static_cast<size_t>(I)];
      if (N.isLeaf())
        continue;
      bool Accepted = false;
      for (int In : N.Inputs) {
        const FuzzNode &Src = Cur.Nodes[static_cast<size_t>(In)];
        if (!(Src.OutShape == N.OutShape))
          continue;
        // Keep outputs on operator nodes: the pipeline's contract is that
        // outputs are computed values, not aliased leaves.
        if (N.IsOutput && Src.isLeaf())
          continue;
        FuzzSpec Candidate = bypassNode(Cur, I, In);
        if (StillFails(Candidate)) {
          Cur = std::move(Candidate);
          Changed = Accepted = true;
          break;
        }
      }
      if (Accepted)
        break; // Indices shifted; restart the scan.
    }
    if (Changed)
      continue;

    // (c) Replace an interior operator (and thereby its entire input cone)
    // with a fresh model input of the same shape.
    for (int I = static_cast<int>(Cur.Nodes.size()) - 1; I >= 0; --I) {
      const FuzzNode &N = Cur.Nodes[static_cast<size_t>(I)];
      if (N.isLeaf() || N.IsOutput || N.Inputs.empty())
        continue;
      FuzzSpec Candidate = Cur;
      FuzzNode &M = Candidate.Nodes[static_cast<size_t>(I)];
      M.Kind = OpKind::Input;
      M.Inputs.clear();
      M.Attrs = AttrMap();
      M.LeafShape = M.OutShape;
      Candidate = gcSpec(Candidate);
      if (Candidate.numOps() < Cur.numOps() && StillFails(Candidate)) {
        Cur = std::move(Candidate);
        Changed = true;
        break;
      }
    }
  }
  return Cur;
}

std::string fuzzOneSeed(uint64_t Seed, const std::vector<DiffConfig> &Configs,
                        const FuzzConfig &Config) {
  FuzzSpec Spec = generateSpec(Seed, Config);
  std::optional<DiffFailure> Failure = runDifferential(Spec, Configs);
  if (!Failure)
    return "";

  FuzzSpec Minimal = shrinkSpec(Spec, [&](const FuzzSpec &Candidate) {
    return runDifferential(Candidate, Configs).has_value();
  });
  std::optional<DiffFailure> MinFailure = runDifferential(Minimal, Configs);
  const DiffFailure &Report = MinFailure ? *MinFailure : *Failure;

  return formatString(
             "GraphFuzz seed %llu: optimized pipeline diverges from "
             "reference\n  config : %s\n  detail : %s\n  shrunk : %d -> %d "
             "operators\nminimal repro:\n",
             static_cast<unsigned long long>(Seed), Report.Config.c_str(),
             Report.Message.c_str(), Spec.numOps(), Minimal.numOps()) +
         toBuilderCode(Minimal);
}

std::string fuzzMalformedRequests(const FuzzSpec &Spec) {
  CompiledModel M = cantFail(compileModel(buildGraph(Spec), CompileOptions()));
  InferenceSession Session(std::move(M));
  const ModelSignature &Sig = Session.signature();
  std::vector<Tensor> Valid = specInputs(Spec);

  // Every mutation must be rejected with a clean error Status — never an
  // abort (an abort kills this test process, which *is* the detector).
  struct Mutation {
    std::string Name;
    std::vector<Tensor> Request;
  };
  std::vector<Mutation> Mutations;
  {
    Mutation Extra{"extra trailing input", Valid};
    Extra.Request.push_back(Tensor::zeros(Shape({1})));
    Mutations.push_back(std::move(Extra));
  }
  if (!Valid.empty()) { // Constant-only specs have no inputs to corrupt.
    Mutation Dropped{"dropped last input", Valid};
    Dropped.Request.pop_back();
    Mutations.push_back(std::move(Dropped));

    size_t Victim = static_cast<size_t>(Spec.Seed % Valid.size());
    Mutation WrongShape{"wrong shape", Valid};
    std::vector<int64_t> Dims = Valid[Victim].shape().dims();
    Dims.insert(Dims.begin(), 2);
    WrongShape.Request[Victim] = Tensor::zeros(Shape(Dims));
    Mutations.push_back(std::move(WrongShape));

    Mutation WrongDtype{"wrong dtype", Valid};
    WrongDtype.Request[Victim] =
        Tensor(Valid[Victim].shape(), DType::Int32);
    Mutations.push_back(std::move(WrongDtype));

    Mutation Null{"null tensor", Valid};
    Null.Request[Victim] = Tensor();
    Mutations.push_back(std::move(Null));
  }
  for (const Mutation &Mut : Mutations) {
    Expected<std::vector<Tensor>> Result = Session.run(Mut.Request);
    if (Result.ok())
      return formatString("GraphFuzz seed %llu: malformed request (%s) was "
                          "accepted instead of rejected",
                          static_cast<unsigned long long>(Spec.Seed),
                          Mut.Name.c_str());
  }

  // Unknown-name dimension of the named-binding overload.
  std::map<std::string, Tensor> Named;
  for (size_t I = 0; I < Valid.size(); ++I)
    Named[Sig.Inputs[I].Name] = Valid[I];
  Named["no_such_input_name"] = Tensor::zeros(Shape({1}));
  if (Session.run(Named).ok())
    return formatString("GraphFuzz seed %llu: unknown-name request was "
                        "accepted instead of rejected",
                        static_cast<unsigned long long>(Spec.Seed));

  // The session must remain fully serviceable: rejected requests never
  // leased a context, and a valid request still succeeds.
  if (Session.contextsCreated() != 0)
    return formatString("GraphFuzz seed %llu: rejected requests leaked %u "
                        "execution contexts",
                        static_cast<unsigned long long>(Spec.Seed),
                        Session.contextsCreated());
  Expected<std::vector<Tensor>> Ok = Session.run(Valid);
  if (!Ok.ok())
    return formatString("GraphFuzz seed %llu: valid request rejected after "
                        "malformed ones: %s",
                        static_cast<unsigned long long>(Spec.Seed),
                        Ok.status().toString().c_str());
  SessionMetrics Metrics = Session.metrics();
  if (Metrics.RequestsServed != 1 ||
      Metrics.RequestsRejected != Mutations.size() + 1)
    return formatString(
        "GraphFuzz seed %llu: metrics miscount (served %llu, rejected %llu, "
        "expected 1 / %zu)",
        static_cast<unsigned long long>(Spec.Seed),
        static_cast<unsigned long long>(Metrics.RequestsServed),
        static_cast<unsigned long long>(Metrics.RequestsRejected),
        Mutations.size() + 1);
  return "";
}

std::string fuzzSerializeRoundtrip(const FuzzSpec &Spec) {
  auto Fail = [&](const char *What, const std::string &Detail) {
    return formatString("GraphFuzz seed %llu: %s: %s",
                        static_cast<unsigned long long>(Spec.Seed), What,
                        Detail.c_str());
  };
  auto GraphsMatch = [](const Graph &A, const Graph &B) -> std::string {
    if (A.toString() != B.toString())
      return "structural dump differs";
    if (A.numNodes() != B.numNodes())
      return "node count differs";
    for (NodeId Id = 0; Id < A.numNodes(); ++Id) {
      const Node &NA = A.node(Id);
      const Node &NB = B.node(Id);
      if (NA.Dead != NB.Dead || NA.Name != NB.Name)
        return formatString("node %d dead/name differs", Id);
      if (NA.Dead || NA.Kind != OpKind::Constant)
        continue;
      if (NA.ConstValue.byteSize() != NB.ConstValue.byteSize() ||
          NA.ConstValue.dtype() != NB.ConstValue.dtype() ||
          std::memcmp(NA.ConstValue.data(), NB.ConstValue.data(),
                      NA.ConstValue.byteSize()) != 0)
        return formatString("constant %d payload differs", Id);
    }
    return "";
  };

  Graph G = buildGraph(Spec);

  // Binary artifact roundtrip: exact structure + bit-exact weights.
  std::string GraphBytes = serializeGraphArtifact(G);
  Expected<Graph> Binary = deserializeGraphArtifact(GraphBytes);
  if (!Binary.ok())
    return Fail("binary graph roundtrip rejected",
                Binary.status().toString());
  if (std::string Diff = GraphsMatch(G, *Binary); !Diff.empty())
    return Fail("binary graph roundtrip mismatch", Diff);

  // Compiled artifact roundtrip: the loaded model must execute
  // bit-identically to the in-memory one (same plan, same arena layout,
  // same codegen).
  CompiledModel M = cantFail(compileModel(std::move(G)));
  std::string ModelBytes = serializeCompiledModel(M);
  Expected<CompiledModel> Loaded = deserializeCompiledModel(ModelBytes);
  if (!Loaded.ok())
    return Fail("compiled-model roundtrip rejected",
                Loaded.status().toString());
  std::vector<Tensor> Inputs = specInputs(Spec);
  ExecutionContext Original(M);
  ExecutionContext Restored(*Loaded);
  std::vector<Tensor> Want = Original.run(Inputs);
  std::vector<Tensor> Got = Restored.run(Inputs);
  if (std::optional<std::string> Diff =
          compareOutputs(Want, Got, 0.0f, 0.0f))
    return Fail("loaded model output not bit-identical", *Diff);

  // Corruption sweep, derived deterministically from the seed. Every
  // sample must reject with a Status; an abort kills this process, which
  // is exactly what the dimension detects.
  Rng R(Spec.Seed ^ 0xc0881e5bad5eed5ull);
  const size_t Size = ModelBytes.size();
  size_t Truncations[] = {0, 7, Size / 4, Size / 2, Size - 1,
                          static_cast<size_t>(R.nextBelow(Size))};
  for (size_t Len : Truncations) {
    if (deserializeCompiledModel(ModelBytes.substr(0, Len)).ok())
      return Fail("truncated artifact accepted",
                  formatString("length %zu of %zu", Len, Size));
  }
  for (int I = 0; I < 8; ++I) {
    std::string Corrupt = ModelBytes;
    size_t Offset = static_cast<size_t>(R.nextBelow(Size));
    Corrupt[Offset] = static_cast<char>(
        Corrupt[Offset] ^ static_cast<char>(1u << R.nextBelow(8)));
    if (deserializeCompiledModel(Corrupt).ok())
      return Fail("bit-flipped artifact accepted",
                  formatString("flip at byte %zu of %zu", Offset, Size));
  }
  // Same for the bare graph artifact (different header kind, same rules).
  for (int I = 0; I < 4; ++I) {
    std::string Corrupt = GraphBytes;
    size_t Offset = static_cast<size_t>(R.nextBelow(Corrupt.size()));
    Corrupt[Offset] = static_cast<char>(
        Corrupt[Offset] ^ static_cast<char>(1u << R.nextBelow(8)));
    if (deserializeGraphArtifact(Corrupt).ok())
      return Fail("bit-flipped graph artifact accepted",
                  formatString("flip at byte %zu", Offset));
  }
  return "";
}

std::string fuzzFaultInjection(const FuzzSpec &Spec) {
  FaultInjection &FI = FaultInjection::instance();
  auto Fail = [&](const char *Point, const std::string &Detail) {
    FI.reset();
    resetKernelDegradeLatchForTests();
    return formatString("GraphFuzz seed %llu: fault point %s: %s",
                        static_cast<unsigned long long>(Spec.Seed), Point,
                        Detail.c_str());
  };
  // Compile through an on-disk cache so the fileio points sit on a real
  // code path; a tiny retry budget keeps the sweep fast while still
  // exercising the backoff loop.
  CompileOptions Options;
  Options.CacheDir = formatString("/tmp/dnnf_fuzzfault_%d_%llu",
                                  static_cast<int>(getpid()),
                                  static_cast<unsigned long long>(Spec.Seed));
  Options.CacheRetry.InitialBackoffMicros = 20;
  Options.CacheRetry.MaxBackoffMicros = 100;

  for (const char *Point : knownFaultPoints()) {
    // Build the harness's own material (graph, inputs) before arming: the
    // system under test starts at compileModel.
    Graph G = buildGraph(Spec);
    std::vector<Tensor> Inputs = specInputs(Spec);
    const bool AllocPoint = std::strncmp(Point, "alloc.", 6) == 0;

    FI.reset(Spec.Seed * 1315423911u + 17);
    FaultSpec FS;
    FS.Probability = 0.6;
    FI.arm(Point, FS);

    std::string Report;
    try {
      Expected<CompiledModel> M = compileModel(std::move(G), Options);
      if (M.ok()) {
        InferenceSession Session(M.takeValue());
        for (int I = 0; I < 4; ++I) {
          Expected<std::vector<Tensor>> Out = Session.run(Inputs);
          (void)Out; // Ok or typed Status; an abort kills the detector.
        }
        if (Session.idleContexts() != Session.contextsCreated())
          Report = formatString("leaked contexts (%u idle of %u created)",
                                Session.idleContexts(),
                                Session.contextsCreated());
      }
    } catch (const std::bad_alloc &) {
      // Only the alloc points may surface as bad_alloc, and only from the
      // compile/construction path — the request boundary converts it.
      if (!AllocPoint)
        Report = "unexpected std::bad_alloc escaped";
    } catch (...) {
      Report = "unexpected exception escaped";
    }
    FI.reset();
    if (!Report.empty())
      return Fail(Point, Report);

    // Healthy after the fault clears: a clean compile + serve must succeed
    // (the kernel degrade latch is one-way by design, and scalar execution
    // is bit-identical, so kernel.dispatch does not exempt this probe).
    Expected<CompiledModel> Clean = compileModel(buildGraph(Spec), Options);
    if (!Clean.ok())
      return Fail(Point, "clean recompile failed after disarm: " +
                             Clean.status().toString());
    InferenceSession Session(Clean.takeValue());
    Expected<std::vector<Tensor>> Out = Session.run(Inputs);
    if (!Out.ok())
      return Fail(Point, "clean run failed after disarm: " +
                         Out.status().toString());
  }
  // The kernel.dispatch sweep latched the process onto the scalar tier;
  // un-latch so the rest of this test binary measures the real registry.
  resetKernelDegradeLatchForTests();
  return "";
}

} // namespace testutil
} // namespace dnnfusion
