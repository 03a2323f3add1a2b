//===- examples/inspect_codegen.cpp - look at what the code generator built ---------===//
//
// Renders the C++ source of fused kernels (paper §4.4's code generation)
// and shows how generated kernels are shared: blocks with equal structural
// signatures, in this model or the next, need one kernel.
// Compilation goes through the public facade and its Expected error model;
// CodeEmitter itself is an internal (unstable) interface.
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include "core/CodeEmitter.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <set>

using namespace dnnfusion;

int main() {
  // A GEMM + Div + Transpose chain — the paper's own §4.4.1 example of
  // fusing Many-to-Many with One-to-One and Shuffle.
  GraphBuilder B(5);
  NodeId X = B.input(Shape({8, 16}), "x");
  NodeId W = B.weight(Shape({16, 8}));
  NodeId M = B.op(OpKind::MatMul, {X, W});
  NodeId D = B.div(M, B.scalar(8.0f));
  NodeId T = B.transpose(D, {1, 0});
  B.markOutput(T);

  Expected<CompiledModel> Compiled = compileModel(B.take(), CompileOptions());
  if (!Compiled.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n",
                 Compiled.status().toString().c_str());
    return 1;
  }
  CompiledModel Model = Compiled.takeValue();
  std::printf("fusion plan:\n%s\n", Model.Plan.toString(Model.G).c_str());

  std::set<std::string> Generated;
  for (size_t I = 0; I < Model.Blocks.size(); ++I) {
    std::string Sig = blockSignature(Model.G, Model.Plan.Blocks[I]);
    bool Reused = !Generated.insert(Sig).second;
    std::string Name = formatString("fused_kernel_%zu", I);
    std::printf("---- block %zu (%s, %s) ----\n%s\n", I, Sig.c_str(),
                Reused ? "reused" : "new",
                emitBlockSource(Model.G, Model.Blocks[I], Name).c_str());
  }

  // Compile a second, structurally identical model: every kernel it needs
  // was already generated ("once a new operator is generated, it can be
  // used for both the current model and future models", paper §4.4.1).
  GraphBuilder B2(99); // Different weights, same structure.
  NodeId X2 = B2.input(Shape({8, 16}), "x");
  NodeId W2 = B2.weight(Shape({16, 8}));
  NodeId T2 = B2.transpose(B2.div(B2.op(OpKind::MatMul, {X2, W2}),
                                  B2.scalar(8.0f)),
                           {1, 0});
  B2.markOutput(T2);
  Expected<CompiledModel> Compiled2 = compileModel(B2.take(), CompileOptions());
  if (!Compiled2.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n",
                 Compiled2.status().toString().c_str());
    return 1;
  }
  CompiledModel Model2 = Compiled2.takeValue();
  size_t Reused = 0;
  for (size_t I = 0; I < Model2.Blocks.size(); ++I)
    Reused += Generated.count(blockSignature(Model2.G, Model2.Plan.Blocks[I]));
  std::printf("second model with identical structure: %zu/%zu fused kernels "
              "already generated\n",
              Reused, Model2.Blocks.size());
  return 0;
}
