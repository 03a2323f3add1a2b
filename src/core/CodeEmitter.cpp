//===- core/CodeEmitter.cpp - Fused kernel source rendering ---------------------===//

#include "core/CodeEmitter.h"

#include "ops/KernelRegistry.h"
#include "ops/OpSchema.h"
#include "support/StringUtils.h"

using namespace dnnfusion;

namespace {

/// Lower-case scalar helper name for an elementwise operator.
std::string scalarFnName(OpKind K) {
  std::string Name = opKindName(K);
  for (char &C : Name)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Name;
}

/// Renders the expression computing tree node \p NodeIdx at index
/// expression \p IdxExpr.
std::string emitExpr(const DftTree &T, int NodeIdx, const std::string &IdxExpr,
                     int &MapCounter, std::string &MapDecls) {
  const DftNode &N = T.Nodes[static_cast<size_t>(NodeIdx)];
  switch (N.K) {
  case DftNode::Kind::Leaf:
    return formatString("buf%d[%s]", N.BufferSlot, IdxExpr.c_str());

  case DftNode::Kind::Eltwise: {
    std::vector<std::string> Args;
    for (const DftEdge &E : N.Children) {
      std::string ChildIdx = IdxExpr;
      for (const IndexMap &M : E.Maps) {
        int Id = MapCounter++;
        MapDecls += formatString("  //   map%d: %s\n", Id,
                                 M.describe().c_str());
        ChildIdx = formatString("map%d(%s)", Id, ChildIdx.c_str());
      }
      Args.push_back(emitExpr(T, E.Child, ChildIdx, MapCounter, MapDecls));
    }
    if (N.Op == OpKind::Identity)
      return Args[0];
    return scalarFnName(N.Op) + "(" + joinStrings(Args, ", ") + ")";
  }

  case DftNode::Kind::Router: {
    std::vector<std::string> Args;
    for (const DftEdge &E : N.Children) {
      std::string ChildIdx = formatString("route_axis%d(%s)", N.RouterAxis,
                                          IdxExpr.c_str());
      for (const IndexMap &M : E.Maps) {
        int Id = MapCounter++;
        MapDecls += formatString("  //   map%d: %s\n", Id,
                                 M.describe().c_str());
        ChildIdx = formatString("map%d(%s)", Id, ChildIdx.c_str());
      }
      Args.push_back(emitExpr(T, E.Child, ChildIdx, MapCounter, MapDecls));
    }
    return formatString("select_branch(%s)", joinStrings(Args, ", ").c_str());
  }
  }
  return "?";
}

} // namespace

std::string dnnfusion::emitBlockSource(const Graph &G,
                                       const CompiledBlock &Block,
                                       const std::string &KernelName) {
  std::string Src;
  Src += formatString("// Fused kernel %s: %zu step(s), %d fused op(s)\n",
                      KernelName.c_str(), Block.Steps.size(),
                      Block.fusedExpressionOps());
  Src += formatString("void %s(", KernelName.c_str());
  std::vector<std::string> Params;
  for (size_t I = 0; I < Block.ExternalInputs.size(); ++I)
    Params.push_back(formatString(
        "const float *buf%zu /* %s */", I,
        G.node(Block.ExternalInputs[I]).Name.c_str()));
  for (size_t I = 0; I < Block.Locals.size(); ++I)
    Params.push_back(formatString(
        "float *buf%zu /* %s%s */", Block.ExternalInputs.size() + I,
        G.node(Block.Locals[I].Node).Name.c_str(),
        Block.Locals[I].IsBlockOutput ? ", output" : ", scratch"));
  Src += joinStrings(Params, ",\n" + std::string(KernelName.size() + 6, ' '));
  Src += ") {\n";

  for (const CompiledStep &Step : Block.Steps) {
    const Node &Origin = G.node(Step.Origin);
    if (Step.K == CompiledStep::Kind::RefKernel) {
      Src += formatString("  // materialized %s (%s)\n",
                          opKindName(Step.Op),
                          Step.OutShape.toString().c_str());
      std::vector<std::string> Args;
      for (int Slot : Step.InputSlots)
        Args.push_back(formatString("buf%d", Slot));
      Src += formatString("  %s_kernel(%s, buf%d);\n",
                          scalarFnName(Step.Op).c_str(),
                          joinStrings(Args, ", ").c_str(), Step.OutputSlot);
      // Dispatch audit for the Many-to-Many kernels: the tier compileBlock
      // resolved on this host (executeBlock re-resolves from live options).
      if (Step.Op == OpKind::MatMul || Step.Op == OpKind::Gemm ||
          Step.Op == OpKind::Conv)
        Src += formatString(
            "  // kernel dispatch: %s\n",
            kernelLevelName(static_cast<KernelLevel>(Step.DispatchLevel)));
      continue;
    }
    if (Step.K == CompiledStep::Kind::FusedAttention ||
        Step.K == CompiledStep::Kind::FusedLayerNorm) {
      // Fused steps carry no expression tree; emit the kernel call plus
      // the dispatch audit instead of falling into the expression branch.
      bool Attn = Step.K == CompiledStep::Kind::FusedAttention;
      std::vector<std::string> Args;
      for (int Slot : Step.InputSlots)
        Args.push_back(formatString("buf%d", Slot));
      Src += formatString("  // fused %s for %s (%s)\n",
                          Attn ? "attention" : "layernorm",
                          Origin.Name.c_str(),
                          Step.OutShape.toString().c_str());
      Src += formatString("  %s_kernel(%s, buf%d);\n",
                          Attn ? "fused_attention" : "fused_layernorm",
                          joinStrings(Args, ", ").c_str(), Step.OutputSlot);
      Src += formatString(
          "  // kernel dispatch: %s\n",
          kernelLevelName(static_cast<KernelLevel>(Step.DispatchLevel)));
      continue;
    }
    int MapCounter = 0;
    std::string MapDecls;
    std::string Expr =
        emitExpr(Step.Tree, Step.Tree.Root, "i", MapCounter, MapDecls);
    Src += formatString("  // fused expression for %s (%s)\n",
                        Origin.Name.c_str(), Step.OutShape.toString().c_str());
    if (!MapDecls.empty())
      Src += MapDecls;
    Src += formatString("  for (int64_t i = 0; i < %lld; ++i)\n",
                        static_cast<long long>(Step.Tree.OutElems));
    Src += formatString("    buf%d[i] = %s;\n", Step.OutputSlot, Expr.c_str());
    // The instruction tape this step actually executes (the loop above is
    // the mathematical form; the tape is the engine's schedule).
    Src += formatString(
        "  // program tape: %zu instr(s), %d chunk reg(s), %d index set(s)\n",
        Step.Program.Instrs.size(), Step.Program.NumValueRegs,
        Step.Program.NumIndexSets);
    for (const std::string &Line : splitString(Step.Program.describe(), '\n'))
      if (!Line.empty())
        Src += "  //   " + Line + "\n";
  }
  Src += "}\n";
  return Src;
}

std::string dnnfusion::blockSignature(const Graph &G,
                                      const FusionBlock &Block) {
  std::vector<std::string> Parts;
  for (NodeId Id : Block.Members) {
    const Node &N = G.node(Id);
    std::vector<std::string> Ins;
    for (const Shape &In : G.inputShapes(Id))
      Ins.push_back(In.toString());
    std::string Part = formatString("%s(%s)[%s]", opKindName(N.Kind),
                                    joinStrings(Ins, ",").c_str(),
                                    N.OutShape.toString().c_str());
    std::string Attrs = N.Attrs.signature();
    if (!Attrs.empty())
      Part += "{" + Attrs + "}";
    Parts.push_back(std::move(Part));
  }
  return joinStrings(Parts, "+");
}
