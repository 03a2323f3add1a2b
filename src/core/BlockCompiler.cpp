//===- core/BlockCompiler.cpp - Fusion code generation --------------------------===//

#include "core/BlockCompiler.h"

#include "core/TransformerPatterns.h"
#include "ops/KernelsAttention.h"
#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
#include "support/Error.h"

#include <algorithm>
#include <map>

using namespace dnnfusion;

int64_t CompiledBlock::scratchBytes() const {
  int64_t Bytes = 0;
  for (const LocalBuffer &L : Locals)
    if (!L.IsBlockOutput)
      Bytes += L.Sh.numElements() * static_cast<int64_t>(sizeof(float));
  return Bytes;
}

int CompiledBlock::fusedExpressionOps() const {
  int Count = 0;
  for (const CompiledStep &S : Steps)
    if (S.K == CompiledStep::Kind::Expression)
      Count += S.Tree.interiorNodeCount();
  return Count;
}

namespace {

/// Incremental builder for one CompiledBlock.
struct Builder {
  const Graph &G;
  const FusionBlock &Block;
  const CodegenOptions &Opt;
  CompiledBlock Out;

  /// Membership and materialization decisions.
  std::vector<bool> InBlock;
  std::vector<bool> Materialized;
  /// Slot of each node whose value lives in a buffer; -1 = not yet.
  std::vector<int> SlotOf;

  Builder(const Graph &G, const FusionBlock &Block, const CodegenOptions &Opt)
      : G(G), Block(Block), Opt(Opt),
        InBlock(static_cast<size_t>(G.numNodes()), false),
        Materialized(static_cast<size_t>(G.numNodes()), false),
        SlotOf(static_cast<size_t>(G.numNodes()), -1) {}

  bool isHeavy(NodeId Id) const {
    const Node &N = G.node(Id);
    return mappingType(N.Kind, N.Attrs, G.inputShapes(Id)) ==
           MappingType::ManyToMany;
  }

  int externalSlot(NodeId Id) {
    if (SlotOf[static_cast<size_t>(Id)] >= 0)
      return SlotOf[static_cast<size_t>(Id)];
    int Slot = static_cast<int>(Out.ExternalInputs.size());
    Out.ExternalInputs.push_back(Id);
    SlotOf[static_cast<size_t>(Id)] = Slot;
    return Slot;
  }

  /// Reserves a local buffer for \p Id; local slots are appended after all
  /// external slots once building finishes (see finalizeSlots).
  int PendingLocalBase = 1 << 28; // Temporary namespace for local slots.
  int localSlot(NodeId Id, bool IsBlockOutput) {
    int Slot = PendingLocalBase + static_cast<int>(Out.Locals.size());
    Out.Locals.push_back(
        CompiledBlock::LocalBuffer{Id, G.node(Id).OutShape, IsBlockOutput});
    SlotOf[static_cast<size_t>(Id)] = Slot;
    return Slot;
  }
  int stagingSlot(NodeId Id) {
    // Staging buffers are keyed by node but never registered in SlotOf
    // permanently (a staged value is specific to one consumer step).
    int Slot = PendingLocalBase + static_cast<int>(Out.Locals.size());
    Out.Locals.push_back(
        CompiledBlock::LocalBuffer{Id, G.node(Id).OutShape, false});
    return Slot;
  }

  /// Returns the slot holding \p Id's value, emitting whatever steps are
  /// required: external inputs bind directly; materialized members compute
  /// on first use; everything else is staged into a fresh scratch buffer.
  int resolveValueSlot(NodeId Id) {
    if (!InBlock[static_cast<size_t>(Id)])
      return externalSlot(Id);
    if (Materialized[static_cast<size_t>(Id)]) {
      DNNF_CHECK(SlotOf[static_cast<size_t>(Id)] >= 0,
                 "materialized member %d used before being computed", Id);
      return SlotOf[static_cast<size_t>(Id)];
    }
    // Stage a fused-but-unmaterialized producer for a kernel consumer.
    int Slot = stagingSlot(Id);
    emitExpressionStep(Id, Slot);
    return Slot;
  }

  /// Builds the DFT expression for \p Id. Returns the node index plus the
  /// index chain the parent must apply before handing indices to it.
  std::pair<int, IndexChain> buildExpr(DftTree &T, NodeId Id, NodeId Root) {
    bool IsLeafValue =
        !InBlock[static_cast<size_t>(Id)] ||
        (Materialized[static_cast<size_t>(Id)] && Id != Root);
    const Node &N = G.node(Id);

    if (IsLeafValue) {
      DftNode Leaf;
      Leaf.K = DftNode::Kind::Leaf;
      Leaf.Origin = Id;
      Leaf.BufferSlot = resolveValueSlot(Id);
      T.Nodes.push_back(std::move(Leaf));
      return {static_cast<int>(T.Nodes.size()) - 1, {}};
    }

    // Foldable data movement: no node, only an index map on the edge.
    if (Opt.FoldDataMovement && isFoldableMovementOp(N.Kind) &&
        N.Kind != OpKind::Identity) {
      auto [Child, ChildChain] = buildExpr(T, N.Inputs[0], Root);
      IndexChain Chain;
      IndexMap M = movementOpMap(G, N);
      if (!M.isIdentity())
        Chain.push_back(std::move(M));
      Chain.insert(Chain.end(), ChildChain.begin(), ChildChain.end());
      return {Child, std::move(Chain)};
    }
    if (N.Kind == OpKind::Identity) {
      return buildExpr(T, N.Inputs[0], Root);
    }

    if (N.Kind == OpKind::Concat) {
      DftNode Router;
      Router.K = DftNode::Kind::Router;
      Router.Origin = Id;
      Router.Domain = N.OutShape;
      int64_t Axis = N.Attrs.requireInt("axis");
      if (Axis < 0)
        Axis += N.OutShape.rank();
      Router.RouterAxis = static_cast<int>(Axis);
      int64_t Start = 0;
      std::vector<DftEdge> Edges;
      for (NodeId In : N.Inputs) {
        Router.BranchStarts.push_back(Start);
        Start += G.node(In).OutShape.dim(static_cast<int>(Axis));
        auto [Child, Chain] = buildExpr(T, In, Root);
        Edges.push_back(DftEdge{Child, std::move(Chain)});
      }
      Router.Children = std::move(Edges);
      T.Nodes.push_back(std::move(Router));
      return {static_cast<int>(T.Nodes.size()) - 1, {}};
    }

    DNNF_CHECK(isElementwise(N.Kind) || N.Kind == OpKind::BatchNormalization,
               "buildExpr reached unsupported operator %s (node %d)",
               opKindName(N.Kind), Id);

    DftNode E;
    E.K = DftNode::Kind::Eltwise;
    E.Origin = Id;
    E.Op = N.Kind;
    E.Params = resolveScalarParams(N.Kind, N.Attrs);
    E.Domain = N.OutShape;
    bool ChannelParams = N.Kind == OpKind::BatchNormalization ||
                         N.Kind == OpKind::PRelu;
    std::vector<DftEdge> Edges;
    for (NodeId In : N.Inputs) {
      auto [Child, ChildChain] = buildExpr(T, In, Root);
      IndexChain Chain;
      IndexMap B = operandBroadcastMap(G.node(In).OutShape, N.OutShape,
                                       ChannelParams);
      if (!B.isIdentity())
        Chain.push_back(std::move(B));
      Chain.insert(Chain.end(), ChildChain.begin(), ChildChain.end());
      Edges.push_back(DftEdge{Child, std::move(Chain)});
    }
    E.Children = std::move(Edges);
    T.Nodes.push_back(std::move(E));
    return {static_cast<int>(T.Nodes.size()) - 1, {}};
  }

  /// Emits an Expression step computing \p Id into \p OutputSlot.
  void emitExpressionStep(NodeId Id, int OutputSlot) {
    CompiledStep Step;
    Step.K = CompiledStep::Kind::Expression;
    Step.Origin = Id;
    Step.OutShape = G.node(Id).OutShape;
    Step.OutputSlot = OutputSlot;
    auto [RootIdx, Chain] = buildExpr(Step.Tree, Id, Id);
    if (!chainIsIdentity(Chain)) {
      // The root itself is a folded movement operator: wrap it in an
      // Identity elementwise node carrying the chain.
      DftNode Wrap;
      Wrap.K = DftNode::Kind::Eltwise;
      Wrap.Origin = Id;
      Wrap.Op = OpKind::Identity;
      Wrap.Domain = Step.OutShape;
      Wrap.Children.push_back(DftEdge{RootIdx, std::move(Chain)});
      Step.Tree.Nodes.push_back(std::move(Wrap));
      RootIdx = static_cast<int>(Step.Tree.Nodes.size()) - 1;
    }
    Step.Tree.Root = RootIdx;
    Step.Tree.OutElems = Step.OutShape.numElements();
    Out.Steps.push_back(std::move(Step));
  }

  /// Emits a RefKernel step for Many-to-Many members and (when folding is
  /// disabled) materialized data-movement members.
  void emitKernelStep(NodeId Id, int OutputSlot) {
    const Node &N = G.node(Id);
    CompiledStep Step;
    Step.K = CompiledStep::Kind::RefKernel;
    Step.Origin = Id;
    Step.Op = N.Kind;
    Step.Attrs = N.Attrs;
    Step.OutShape = N.OutShape;
    Step.OutputSlot = OutputSlot;
    for (NodeId In : N.Inputs) {
      Step.InputSlots.push_back(resolveValueSlot(In));
      Step.InputShapes.push_back(G.node(In).OutShape);
    }
    Out.Steps.push_back(std::move(Step));
  }

  /// Emits the whole block as one FusedAttention / FusedLayerNorm step
  /// when its member set is exactly a matched transformer subgraph and the
  /// corresponding toggle is on. Returns false to fall through to the
  /// generic (reference) step sequence.
  /// Registers every external producer the plan records for this block,
  /// so the compiled block's external-slot list matches the plan's even
  /// when the fused kernel reads only a subset (e.g. the scale scalar is
  /// baked into the step attrs and the causal mask into the kernel).
  void bindRemainingExternals() {
    for (NodeId Id : Block.Members)
      for (NodeId In : G.node(Id).Inputs)
        if (!InBlock[static_cast<size_t>(In)])
          externalSlot(In);
  }

  bool tryEmitFusedBlock(const std::vector<std::vector<NodeId>> &Consumers) {
    if (Block.Outputs.size() != 1)
      return false;
    if (Opt.FuseAttention) {
      if (std::optional<AttentionMatch> M =
              matchAttentionBlock(G, Consumers, Block.Members)) {
        if (M->Root != Block.Outputs[0])
          return false;
        CompiledStep Step;
        Step.K = CompiledStep::Kind::FusedAttention;
        Step.Origin = M->Root;
        Step.Op = OpKind::MatMul;
        Step.OutShape = G.node(M->Root).OutShape;
        Step.Attrs.set("scale", static_cast<double>(M->Scale));
        Step.Attrs.set("causal", static_cast<int64_t>(M->Causal ? 1 : 0));
        std::vector<NodeId> Operands = {M->QNode, M->KtNode, M->VNode};
        // The causal variant skips future keys outright; the mask tensor
        // is only bound (and read) for non-causal additive masks.
        if (M->MaskNode != InvalidNodeId && !M->Causal)
          Operands.push_back(M->MaskNode);
        for (NodeId In : Operands) {
          Step.InputSlots.push_back(externalSlot(In));
          Step.InputShapes.push_back(G.node(In).OutShape);
        }
        Step.OutputSlot = localSlot(M->Root, /*IsBlockOutput=*/true);
        Out.Steps.push_back(std::move(Step));
        return true;
      }
    }
    if (Opt.FuseNorm) {
      if (std::optional<LayerNormMatch> M =
              matchLayerNormBlock(G, Consumers, Block.Members)) {
        if (M->Root != Block.Outputs[0])
          return false;
        CompiledStep Step;
        Step.K = CompiledStep::Kind::FusedLayerNorm;
        Step.Origin = M->Root;
        Step.Op = OpKind::Add;
        Step.OutShape = G.node(M->Root).OutShape;
        Step.Attrs.set("epsilon", static_cast<double>(M->Eps));
        for (NodeId In : {M->XNode, M->GammaNode, M->BetaNode}) {
          Step.InputSlots.push_back(externalSlot(In));
          Step.InputShapes.push_back(G.node(In).OutShape);
        }
        Step.OutputSlot = localSlot(M->Root, /*IsBlockOutput=*/true);
        Out.Steps.push_back(std::move(Step));
        return true;
      }
    }
    return false;
  }

  /// Renumbers pending local slots to follow the final external count.
  void finalizeSlots() {
    int Shift =
        static_cast<int>(Out.ExternalInputs.size()) - PendingLocalBase;
    auto Fix = [&](int &Slot) {
      if (Slot >= PendingLocalBase)
        Slot += Shift;
    };
    for (CompiledStep &Step : Out.Steps) {
      Fix(Step.OutputSlot);
      for (int &Slot : Step.InputSlots)
        Fix(Slot);
      for (DftNode &N : Step.Tree.Nodes)
        if (N.K == DftNode::Kind::Leaf)
          Fix(N.BufferSlot);
    }
  }

  CompiledBlock run() {
    for (NodeId Id : Block.Members)
      InBlock[static_cast<size_t>(Id)] = true;

    // Internal-consumer counts drive CSE materialization.
    std::vector<std::vector<NodeId>> Consumers = G.computeConsumers();

    // Whole-block transformer patterns compile to one fused step.
    if ((Opt.FuseAttention || Opt.FuseNorm) && tryEmitFusedBlock(Consumers)) {
      bindRemainingExternals();
      finalizeSlots();
      return std::move(Out);
    }
    for (NodeId Id : Block.Members) {
      int InternalUses = 0;
      for (NodeId User : Consumers[static_cast<size_t>(Id)])
        if (InBlock[static_cast<size_t>(User)])
          ++InternalUses;
      bool IsOutput = std::find(Block.Outputs.begin(), Block.Outputs.end(),
                                Id) != Block.Outputs.end();
      bool Heavy = isHeavy(Id);
      bool SharedCse = Opt.MaterializeShared && InternalUses > 1;
      bool ForcedCopy = !Opt.FoldDataMovement && isDataMovement(G.node(Id).Kind);
      Materialized[static_cast<size_t>(Id)] =
          IsOutput || Heavy || SharedCse || ForcedCopy;
    }

    // Members arrive topologically sorted from the planner; walk them in
    // order and emit a step per materialized member.
    for (NodeId Id : Block.Members) {
      if (!Materialized[static_cast<size_t>(Id)])
        continue;
      bool IsOutput = std::find(Block.Outputs.begin(), Block.Outputs.end(),
                                Id) != Block.Outputs.end();
      const Node &N = G.node(Id);
      bool NeedsKernel =
          isHeavy(Id) || (!Opt.FoldDataMovement && isDataMovement(N.Kind) &&
                          !isElementwise(N.Kind));
      if (NeedsKernel) {
        // Resolve inputs (possibly staging) before claiming the output
        // slot so the step order stays producer-before-consumer.
        emitKernelStep(Id, /*OutputSlot placeholder*/ -1);
        int Slot = localSlot(Id, IsOutput);
        Out.Steps.back().OutputSlot = Slot;
      } else {
        // Expression root; staging inside buildExpr emits producer steps
        // first, so claim the slot afterwards as well.
        emitExpressionStep(Id, -1);
        int Slot = localSlot(Id, IsOutput);
        Out.Steps.back().OutputSlot = Slot;
      }
    }

    finalizeSlots();

    // Lower every expression tree to its instruction tape once slots are
    // final (the tape embeds resolved buffer-slot ids).
    for (CompiledStep &Step : Out.Steps)
      if (Step.K == CompiledStep::Kind::Expression)
        Step.Program = DftProgram::compile(Step.Tree);

    return std::move(Out);
  }
};

} // namespace

CompiledBlock dnnfusion::compileBlock(const Graph &G, const FusionBlock &Block,
                                      const CodegenOptions &Options) {
  Builder B(G, Block, Options);
  CompiledBlock Out = B.run();
  // Resolve kernel dispatch once per step for the audit trail (CodeEmitter
  // lines, cache-redispatch tests). FusedLayerNorm stays scalar by design:
  // its horizontal sums have no order-preserving vectorization, and the
  // bit-identity with the decomposed graph is the step's whole contract.
  KernelLevel Level = effectiveKernelLevel(Options.Kernels);
  for (CompiledStep &Step : Out.Steps)
    if (Step.K != CompiledStep::Kind::FusedLayerNorm)
      Step.DispatchLevel = static_cast<int8_t>(Level);
  return Out;
}

void dnnfusion::executeBlock(const CompiledBlock &Block, const BlockIo &Io,
                             const CodegenOptions &Options,
                             const BlockRuntime &Rt) {
  DNNF_CHECK(Io.Externals.size() == Block.ExternalInputs.size() &&
                 Io.LocalPtrs.size() == Block.Locals.size(),
             "block IO binding mismatch");
  std::vector<const float *> Slots(static_cast<size_t>(Block.numSlots()));
  for (size_t I = 0; I < Io.Externals.size(); ++I)
    Slots[I] = Io.Externals[I];
  for (size_t I = 0; I < Io.LocalPtrs.size(); ++I)
    Slots[Io.Externals.size() + I] = Io.LocalPtrs[I];

  // One dispatch resolution per block execution, from the *live* options
  // — the kernel tier behaves like every other engine knob (flippable
  // without recompiling; the compile-time DispatchLevel stamp is audit).
  KernelLevel Level = effectiveKernelLevel(Options.Kernels);

  for (const CompiledStep &Step : Block.Steps) {
    float *OutPtr = Io.LocalPtrs[static_cast<size_t>(Step.OutputSlot) -
                                 Io.Externals.size()];
    if (Step.K == CompiledStep::Kind::Expression) {
      if (Rt.Counters)
        ++Rt.Counters->ProgramSteps;
      Step.Program.execute(Slots, OutPtr, Options.ChunkSize, Level);
      continue;
    }
    if (Step.K == CompiledStep::Kind::FusedAttention) {
      const Shape &QS = Step.InputShapes[0];
      int Rank = QS.rank();
      int64_t S = QS.dim(Rank - 2), Dh = QS.dim(Rank - 1);
      int64_t Batches = QS.numElements() / (S * Dh);
      const float *Mask =
          Step.InputSlots.size() > 3
              ? Slots[static_cast<size_t>(Step.InputSlots[3])]
              : nullptr;
      runFusedAttention(
          Slots[static_cast<size_t>(Step.InputSlots[0])],
          Slots[static_cast<size_t>(Step.InputSlots[1])],
          Slots[static_cast<size_t>(Step.InputSlots[2])], Mask,
          /*MaskBatchStride=*/0,
          static_cast<float>(Step.Attrs.getFloat("scale", 1.0)),
          Step.Attrs.getInt("causal", 0) != 0, OutPtr, Batches, S, Dh,
          Rt.Counters, Level);
      continue;
    }
    if (Step.K == CompiledStep::Kind::FusedLayerNorm) {
      const Shape &XS = Step.InputShapes[0];
      int64_t H = XS.dim(XS.rank() - 1);
      int64_t Rows = XS.numElements() / H;
      runFusedLayerNorm(
          Slots[static_cast<size_t>(Step.InputSlots[0])],
          Slots[static_cast<size_t>(Step.InputSlots[1])],
          Slots[static_cast<size_t>(Step.InputSlots[2])],
          static_cast<float>(Step.Attrs.getFloat("epsilon", 1e-5)), OutPtr,
          Rows, H, Rt.Counters);
      continue;
    }
    // RefKernel step.
    std::vector<Tensor> InputViews;
    InputViews.reserve(Step.InputSlots.size());
    std::vector<const Tensor *> Inputs;
    for (size_t I = 0; I < Step.InputSlots.size(); ++I) {
      InputViews.push_back(Tensor::borrow(
          const_cast<float *>(Slots[static_cast<size_t>(Step.InputSlots[I])]),
          Step.InputShapes[I]));
      Inputs.push_back(&InputViews.back());
    }
    Tensor OutView = Tensor::borrow(OutPtr, Step.OutShape);
    KernelRuntime KRt;
    if (Rt.Prepack && Step.PrepackIndex >= 0)
      KRt.Prepacked = &(*Rt.Prepack)[static_cast<size_t>(Step.PrepackIndex)];
    KRt.PackScratch = Rt.PackScratch;
    KRt.PackScratchElems = Rt.PackScratchElems;
    KRt.Counters = Rt.Counters;
    runRefKernel(Step.Op, Step.Attrs, Inputs, OutView, Options.Kernels, KRt);
  }
}
