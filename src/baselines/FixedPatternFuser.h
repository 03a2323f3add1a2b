//===- baselines/FixedPatternFuser.h - Framework-like fusers -------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-pattern operator fusion as practiced by the four frameworks the
/// paper compares against (§5: MNN, TVM, TensorFlow-Lite, PyTorch-Mobile),
/// reimplemented from their published fusion pattern sets and run on this
/// repository's runtime. The point of Table 5/6 is the *coverage* gap
/// between pattern matching and DNNFusion's mapping-type analysis; using
/// one shared runtime isolates exactly that variable (kernel-quality
/// differences between the real frameworks are out of scope).
///
/// Pattern sets:
///  - TvmLike: Relay-style groups — a complex-out operator absorbs its
///    downstream single-consumer elementwise chain; pure elementwise
///    chains group together. Reorganize/Shuffle/Concat stay opaque (the
///    paper's examples of fusions TVM misses). Also used as OurB+.
///  - MnnLike: Conv/MatMul + BatchNorm + activation (+ bias Add), and
///    elementwise chains capped at three operators.
///  - TfliteLike: Conv/MatMul + BatchNorm + {Relu, Clip}, binary + one
///    activation.
///  - PytorchLike: Conv + BatchNorm (+ Relu), MatMul + Add. Narrowest.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_BASELINES_FIXEDPATTERNFUSER_H
#define DNNFUSION_BASELINES_FIXEDPATTERNFUSER_H

#include "core/FusionPlan.h"

namespace dnnfusion {

/// The emulated framework.
enum class BaselineFramework {
  TvmLike,
  MnnLike,
  TfliteLike,
  PytorchLike,
};

const char *baselineFrameworkName(BaselineFramework F);

/// Computes the framework's fixed-pattern fusion plan for \p G.
FusionPlan fixedPatternFusion(const Graph &G, BaselineFramework F);

} // namespace dnnfusion

#endif // DNNFUSION_BASELINES_FIXEDPATTERNFUSER_H
