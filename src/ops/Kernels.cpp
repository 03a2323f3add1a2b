//===- ops/Kernels.cpp - Reference kernel dispatch ----------------------------===//

#include "ops/Kernels.h"

#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
#include "support/Error.h"

using namespace dnnfusion;

void dnnfusion::runRefKernel(OpKind Kind, const AttrMap &Attrs,
                             const std::vector<const Tensor *> &Inputs,
                             Tensor &Out, const KernelConfig &Config,
                             const KernelRuntime &Rt) {
  if (isElementwise(Kind) || Kind == OpKind::BatchNormalization)
    return detail::runElementwiseKernel(Kind, Attrs, Inputs, Out);

  switch (Kind) {
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
    return detail::runDataMovementKernel(Kind, Attrs, Inputs, Out);

  case OpKind::MatMul:
  case OpKind::Gemm:
    return detail::runMatMulKernel(Kind, Attrs, Inputs, Out, Config, Rt);

  case OpKind::Conv:
  case OpKind::ConvTranspose:
    return detail::runConvKernel(Kind, Attrs, Inputs, Out, Config, Rt);

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
    return detail::runPoolReduceKernel(Kind, Attrs, Inputs, Out);

  default:
    reportFatalErrorf("runRefKernel: no kernel for %s", opKindName(Kind));
  }
}

int64_t dnnfusion::detail::packScratchElemsForStep(
    OpKind Kind, const AttrMap &Attrs, const std::vector<Shape> &InputShapes,
    const Shape &OutShape, const KernelConfig &Config,
    bool WeightIsConstant) {
  if (!Config.UsePackedGemm || InputShapes.size() < 2)
    return 0;
  switch (Kind) {
  case OpKind::MatMul:
  case OpKind::Gemm: {
    // A constant B operand is served by the model's prepack store.
    if (WeightIsConstant)
      return 0;
    GemmDims D = gemmDims(Kind, Attrs, InputShapes[0], InputShapes[1],
                          OutShape);
    GemmRoute R = D.route(Config, /*Prepacked=*/false);
    return R.Path == GemmRoute::Panel
               ? D.BSlices * packedPanelElems(D.K, D.N, R.NR)
               : 0;
  }
  case OpKind::Conv:
    // im2col columns are activation-derived: always packed at run time.
    return convPackScratchElems(Attrs, InputShapes[0], InputShapes[1],
                                OutShape, Config);
  default:
    return 0;
  }
}
