//===- ops/OpSchema.h - Shape/FLOPs/mapping-type schema ----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-operator static semantics: shape inference, FLOP counting, the
/// paper's Table 2 mapping-type classification, arity, and the algebraic
/// property flags the graph-rewriting pass partitions on. This is the
/// single source of truth the graph verifier, the ECG annotation pass, the
/// fusion planner, and the benches all consult.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_OPSCHEMA_H
#define DNNFUSION_OPS_OPSCHEMA_H

#include "ops/Attributes.h"
#include "ops/MappingType.h"
#include "ops/OpKind.h"
#include "tensor/Shape.h"

#include <vector>

namespace dnnfusion {

/// Infers the output shape of \p Kind applied to \p InputShapes with
/// \p Attrs. Aborts with a diagnostic on invalid combinations.
Shape inferShape(OpKind Kind, const AttrMap &Attrs,
                 const std::vector<Shape> &InputShapes);

/// The paper's Table 2 classification. Shape-sensitive: an elementwise
/// binary whose inputs broadcast is One-to-Many ("Elementwise w/
/// broadcast"), otherwise One-to-One.
MappingType mappingType(OpKind Kind, const AttrMap &Attrs,
                        const std::vector<Shape> &InputShapes);

/// Mapping type assuming no broadcasting (the entry printed in Table 2).
MappingType staticMappingType(OpKind Kind);

/// Floating-point operation count (multiply and add counted separately,
/// matching the paper's Table 4 accounting where every elementwise
/// operator costs one FLOP per output element and a reduction costs one
/// FLOP per input element).
int64_t flopCount(OpKind Kind, const AttrMap &Attrs,
                  const std::vector<Shape> &InputShapes, const Shape &Out);

/// Attribute \p Name of a sliding-window operator ("strides", "pads",
/// "dilations") as one entry per spatial dim, every entry \p Default when
/// the attribute is absent. Aborts when it has another length. Shape
/// inference and the window kernels read window attributes only here.
std::vector<int64_t> spatialAttr(const AttrMap &Attrs, const std::string &Name,
                                 size_t Count, int64_t Default);

/// Expected input arity; -1 means variadic (Concat), and a second value
/// covers optional trailing inputs (Conv bias).
struct Arity {
  int Min;
  int Max; ///< -1 = unbounded.
};
Arity opArity(OpKind Kind);

/// True for single-input elementwise operators (output shape == input
/// shape, value depends on one input element).
bool isElementwiseUnary(OpKind Kind);

/// True for two-input broadcasting elementwise operators.
bool isElementwiseBinary(OpKind Kind);

/// True for any elementwise operator (unary, binary, or Where).
bool isElementwise(OpKind Kind);

/// True for reduction operators (ReduceSum ... ReduceProd,
/// GlobalAveragePool).
bool isReduction(OpKind Kind);

/// True when the operator is associative (Add, Mul, Maximum, Minimum).
bool isAssociativeOp(OpKind Kind);

/// True when the operator is commutative in its two inputs.
bool isCommutativeOp(OpKind Kind);

/// True when the operator can appear inside a graph-rewriting region
/// (paper §4.2: regions are delimited by operators carrying none of the
/// associative/commutative/distributive-relevant properties).
bool isRewriteRegionOp(OpKind Kind);

/// Compute-intensive layer per the paper's Table 5 definition ("each input
/// is used more than once"): Conv, ConvTranspose, MatMul, Gemm.
bool isComputeIntensive(OpKind Kind);

/// Pure data-movement operators (zero FLOPs).
bool isDataMovement(OpKind Kind);

} // namespace dnnfusion

#endif // DNNFUSION_OPS_OPSCHEMA_H
