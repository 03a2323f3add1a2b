//===- ops/OpKind.h - Operator kinds ------------------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ONNX-style operator set this reproduction implements. The set covers
/// every operator named in the paper's Table 2 plus the ones its evaluated
/// models require. ONNX multi-output Split is modelled as per-output Slice
/// nodes so the graph IR stays single-output.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_OPKIND_H
#define DNNFUSION_OPS_OPKIND_H

namespace dnnfusion {

/// Every operator kind known to the library.
enum class OpKind {
  // --- Graph entry points -------------------------------------------------
  Input,    ///< Model input placeholder.
  Constant, ///< Weight/constant; payload lives on the graph node.

  // --- One-to-One: elementwise binary (broadcast lifts to One-to-Many) ----
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Maximum,
  Minimum,
  Greater,
  Equal,
  Where, ///< Ternary select(cond, x, y).
  PRelu, ///< x >= 0 ? x : slope * x with per-channel slope input.

  // --- One-to-One: elementwise unary ---------------------------------------
  Relu,
  LeakyRelu, ///< Attr "alpha".
  Sigmoid,
  Tanh,
  Softplus,
  Exp,
  Log,
  Sqrt,
  Reciprocal,
  Abs,
  Square,
  Erf,
  Neg,
  Ceil,
  Floor,
  Round,
  Clip, ///< Attrs "min"/"max".
  Sin,
  Cos,
  Asin,
  Not,
  Cast,     ///< Attr "to" ("i32" truncates, "f32" is identity).
  BitShift, ///< Attrs "bits", "direction" (0=left,1=right); float model
            ///< multiplies by 2^(+/-bits) so the op stays linear.
  Identity,

  // --- One-to-One: multi-input selection / per-channel affine -------------
  Concat,             ///< Attr "axis"; N inputs.
  Slice,              ///< Attrs "starts","ends","axes".
  BatchNormalization, ///< Inputs X,scale,bias,mean,var; attr "epsilon".

  // --- One-to-Many ----------------------------------------------------------
  Expand,   ///< Attr "shape": broadcast input to the target shape.
  Gather,   ///< Attrs "axis", "indices" (static 1-D index list).
  Resize,   ///< Attr "scales": integer nearest-neighbour upscaling.
  Upsample, ///< Alias of Resize kept for ONNX fidelity.

  // --- Many-to-Many ---------------------------------------------------------
  Conv, ///< 1/2/3-D; inputs X,W[,B]; attrs strides/pads/dilations/group.
  ConvTranspose, ///< 2-D; inputs X,W[,B]; attrs strides/pads.
  MatMul,        ///< Batched matrix multiply with broadcastable batch dims.
  Gemm,          ///< 2-D A*B [+ C]; attrs "transA","transB".
  MaxPool,       ///< Attrs kernel/strides/pads; 1/2/3-D.
  AveragePool,
  GlobalAveragePool,
  ReduceSum, ///< Attrs "axes","keepdims".
  ReduceMean,
  ReduceMax,
  ReduceMin,
  ReduceProd,
  Softmax, ///< Attr "axis".
  CumSum,  ///< Attr "axis".
  InstanceNormalization, ///< Inputs X,scale,bias; attr "epsilon".

  // --- Reorganize ------------------------------------------------------------
  Reshape, ///< Attr "shape" (-1 infers one dimension).
  Flatten, ///< Attr "axis".
  Squeeze, ///< Attr "axes".
  Unsqueeze,

  // --- Shuffle ----------------------------------------------------------------
  Transpose,    ///< Attr "perm".
  DepthToSpace, ///< Attr "blocksize" (DCR mode).
  SpaceToDepth,
};

/// Human-readable operator name ("Conv", "ReduceSum", ...).
const char *opKindName(OpKind Kind);

/// Total number of operator kinds (for iteration in tests/benches).
inline constexpr int NumOpKinds = static_cast<int>(OpKind::SpaceToDepth) + 1;

/// All operator kinds as an iterable list.
OpKind opKindFromIndex(int Index);

} // namespace dnnfusion

#endif // DNNFUSION_OPS_OPKIND_H
