//===- core/CodeEmitter.h - Fused kernel source rendering ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a CompiledBlock as C++ source text — the artifact the paper's
/// code generator would hand to the mobile toolchain. This reproduction
/// executes blocks through the DFT evaluator directly (no runtime C++
/// compiler is available), so the emitted source serves auditability: it
/// shows exactly which loops were fused, which index arithmetic replaced
/// data movement, and which values stayed materialized. Blocks with equal
/// signatures (blockSignature) share one generated kernel, within a model
/// and across models (paper §4.4.1).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_CODEEMITTER_H
#define DNNFUSION_CORE_CODEEMITTER_H

#include "core/BlockCompiler.h"

#include <string>

namespace dnnfusion {

/// Renders \p Block as a self-describing C++ function named \p KernelName.
std::string emitBlockSource(const Graph &G, const CompiledBlock &Block,
                            const std::string &KernelName);

/// Structural signature of a fused kernel: each member's operator kind,
/// input shapes, output shape and attribute signature, as
/// "Kind(in,...)[out]{attrs}" joined by '+'. Two blocks with equal
/// signatures can share one generated kernel (paper: "once a new operator
/// is generated, it can be used for both the current model and future
/// models").
std::string blockSignature(const Graph &G, const FusionBlock &Block);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_CODEEMITTER_H
