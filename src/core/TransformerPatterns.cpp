//===- core/TransformerPatterns.cpp - Attention/LayerNorm matching --------------===//

#include "core/TransformerPatterns.h"

#include "core/FusionPlanner.h"
#include "ops/KernelsAttention.h"
#include "support/Error.h"

#include <algorithm>
#include <functional>
#include <map>

using namespace dnnfusion;

namespace {

bool oneUse(const UseCount &Uses, NodeId Id) { return Uses(Id) == 1; }

bool scalarConst(const Graph &G, NodeId Id, float &V) {
  const Node &N = G.node(Id);
  if (N.Kind != OpKind::Constant || N.OutShape.numElements() != 1)
    return false;
  V = N.ConstValue.at(0);
  return true;
}

/// axes == {last} (or {-1}) and keepdims != 0.
bool reducesLastAxisKeepdim(const Node &N) {
  if (N.Attrs.getInt("keepdims", 1) == 0)
    return false;
  std::vector<int64_t> Axes = N.Attrs.getInts("axes");
  if (Axes.size() != 1)
    return false;
  int64_t Rank = N.OutShape.rank();
  return Axes[0] == -1 || Axes[0] == Rank - 1;
}

/// True when \p Mask (an [S, S] row-major table) is exactly the causal
/// pattern: 0 on and below the diagonal, <= -1e8 strictly above.
bool isCausalMask(const float *Mask, int64_t S) {
  for (int64_t I = 0; I < S; ++I)
    for (int64_t J = 0; J < S; ++J) {
      float V = Mask[I * S + J];
      if (J <= I ? V != 0.0f : V > -1e8f)
        return false;
    }
  return true;
}

/// Leading dims (all but the last \p Keep) are all 1.
bool leadingDimsAreOnes(const Shape &Sh, int Keep) {
  for (int D = 0; D < Sh.rank() - Keep; ++D)
    if (Sh.dim(D) != 1)
      return false;
  return true;
}

} // namespace

std::optional<AttentionMatch>
dnnfusion::matchAttention(const Graph &G, const UseCount &Uses, NodeId Root) {
  const Node &CtxN = G.node(Root);
  if (CtxN.Dead || CtxN.Kind != OpKind::MatMul)
    return std::nullopt;

  AttentionMatch M;
  M.Root = Root;
  NodeId P = CtxN.Inputs[0];
  M.VNode = CtxN.Inputs[1];
  const Node &PN = G.node(P);
  if (PN.Kind != OpKind::Softmax || !oneUse(Uses, P))
    return std::nullopt;
  int64_t Axis = PN.Attrs.getInt("axis", -1);
  if (Axis != -1 && Axis != PN.OutShape.rank() - 1)
    return std::nullopt;

  // Walk the softmax input back through the optional additive mask and
  // scalar scale to the scores MatMul. Only the (QK * scale) + mask order
  // matches the fused kernel's formula; a scale applied after the mask
  // matches only when there is no mask.
  std::vector<NodeId> Middle; // Between scores and softmax, reversed.
  NodeId Cur = PN.Inputs[0];
  const Node *CurN = &G.node(Cur);
  if (CurN->Kind == OpKind::Add) {
    NodeId MaskOp = InvalidNodeId, Other = InvalidNodeId;
    if (G.node(CurN->Inputs[1]).Kind == OpKind::Constant) {
      MaskOp = CurN->Inputs[1];
      Other = CurN->Inputs[0];
    } else if (G.node(CurN->Inputs[0]).Kind == OpKind::Constant) {
      MaskOp = CurN->Inputs[0];
      Other = CurN->Inputs[1];
    }
    if (MaskOp != InvalidNodeId && oneUse(Uses, Cur)) {
      M.MaskNode = MaskOp;
      Middle.push_back(Cur);
      Cur = Other;
      CurN = &G.node(Cur);
    }
  }
  if (CurN->Kind == OpKind::Mul) {
    float V;
    NodeId Other = InvalidNodeId;
    if (scalarConst(G, CurN->Inputs[1], V))
      Other = CurN->Inputs[0];
    else if (scalarConst(G, CurN->Inputs[0], V))
      Other = CurN->Inputs[1];
    if (Other != InvalidNodeId && oneUse(Uses, Cur) &&
        (M.MaskNode == InvalidNodeId || G.node(Other).Kind == OpKind::MatMul)) {
      // With a mask already consumed, the scale must sit directly on the
      // scores MatMul (the (QK + mask) * scale order is not this kernel).
      M.Scale = V;
      Middle.push_back(Cur);
      Cur = Other;
      CurN = &G.node(Cur);
    }
  }
  if (CurN->Kind != OpKind::MatMul || !oneUse(Uses, Cur))
    return std::nullopt;
  M.QNode = CurN->Inputs[0];
  M.KtNode = CurN->Inputs[1];

  // Geometry: Q [B.., S, Dh] x Kt [B.., Dh, S] -> scores [B.., S, S];
  // V [B.., S, Dh]. Batch dims must agree exactly (no broadcast).
  const Shape &QS = G.node(M.QNode).OutShape;
  const Shape &KtS = G.node(M.KtNode).OutShape;
  const Shape &VS = G.node(M.VNode).OutShape;
  int Rank = QS.rank();
  if (Rank < 2 || KtS.rank() != Rank || VS.rank() != Rank)
    return std::nullopt;
  int64_t S = QS.dim(Rank - 2), Dh = QS.dim(Rank - 1);
  if (Dh < 1 || Dh > FusedAttentionMaxHeadDim || S < 1)
    return std::nullopt;
  if (KtS.dim(Rank - 2) != Dh || KtS.dim(Rank - 1) != S ||
      VS.dim(Rank - 2) != S || VS.dim(Rank - 1) != Dh)
    return std::nullopt;
  int64_t Batches = 1;
  for (int D = 0; D < Rank - 2; ++D) {
    if (KtS.dim(D) != QS.dim(D) || VS.dim(D) != QS.dim(D))
      return std::nullopt;
    Batches *= QS.dim(D);
  }
  M.S = S;
  M.Dh = Dh;
  M.Batches = Batches;

  if (M.MaskNode != InvalidNodeId) {
    // The mask must broadcast over every batch dim: an [.., S, S] constant
    // with all leading dims 1 (the zoo's [1, 1, S, S] causal mask).
    const Shape &MS = G.node(M.MaskNode).OutShape;
    if (MS.rank() < 2 || MS.dim(MS.rank() - 2) != S ||
        MS.dim(MS.rank() - 1) != S || !leadingDimsAreOnes(MS, 2))
      return std::nullopt;
    M.Causal = isCausalMask(G.node(M.MaskNode).ConstValue.data(), S);
  }

  M.Members.push_back(Cur);
  for (auto It = Middle.rbegin(); It != Middle.rend(); ++It)
    M.Members.push_back(*It);
  M.Members.push_back(P);
  M.Members.push_back(Root);
  return M;
}

std::optional<LayerNormMatch>
dnnfusion::matchLayerNorm(const Graph &G, const UseCount &Uses, NodeId Root) {
  const Node &RootN = G.node(Root);
  if (RootN.Dead || RootN.Kind != OpKind::Add)
    return std::nullopt;

  // Root = Add(Mul(Div(D, Sqrt(Add(Var, eps))), Gamma), Beta); operand
  // order of the commutative Add/Mul is accepted either way.
  auto AsKind = [&](NodeId A, NodeId B, OpKind K,
                    NodeId &Match, NodeId &Other) {
    if (G.node(A).Kind == K) {
      Match = A;
      Other = B;
      return true;
    }
    if (G.node(B).Kind == K) {
      Match = B;
      Other = A;
      return true;
    }
    return false;
  };

  LayerNormMatch M;
  M.Root = Root;
  NodeId M2, Norm, StdN, E, Var, Sq, D, Mean;
  if (!AsKind(RootN.Inputs[0], RootN.Inputs[1], OpKind::Mul, M2, M.BetaNode) ||
      !oneUse(Uses, M2))
    return std::nullopt;
  const Node &M2N = G.node(M2);
  if (!AsKind(M2N.Inputs[0], M2N.Inputs[1], OpKind::Div, Norm, M.GammaNode) ||
      !oneUse(Uses, Norm))
    return std::nullopt;
  const Node &NormN = G.node(Norm);
  D = NormN.Inputs[0];
  StdN = NormN.Inputs[1];
  const Node &StdNN = G.node(StdN);
  if (StdNN.Kind != OpKind::Sqrt || !oneUse(Uses, StdN))
    return std::nullopt;
  E = StdNN.Inputs[0];
  const Node &EN = G.node(E);
  float Eps;
  if (EN.Kind != OpKind::Add || !oneUse(Uses, E))
    return std::nullopt;
  if (scalarConst(G, EN.Inputs[1], Eps))
    Var = EN.Inputs[0];
  else if (scalarConst(G, EN.Inputs[0], Eps))
    Var = EN.Inputs[1];
  else
    return std::nullopt;
  M.Eps = Eps;
  const Node &VarN = G.node(Var);
  if (VarN.Kind != OpKind::ReduceMean || !reducesLastAxisKeepdim(VarN) ||
      !oneUse(Uses, Var))
    return std::nullopt;
  Sq = VarN.Inputs[0];
  const Node &SqN = G.node(Sq);
  // Square(D), or its pre-canonicalization spelling Mul(D, D).
  bool IsSquare =
      (SqN.Kind == OpKind::Square && SqN.Inputs[0] == D) ||
      (SqN.Kind == OpKind::Mul && SqN.Inputs[0] == D && SqN.Inputs[1] == D);
  if (!IsSquare || !oneUse(Uses, Sq))
    return std::nullopt;
  const Node &DN = G.node(D);
  if (DN.Kind != OpKind::Sub || Uses(D) != 2)
    return std::nullopt;
  M.XNode = DN.Inputs[0];
  Mean = DN.Inputs[1];
  const Node &MeanN = G.node(Mean);
  if (MeanN.Kind != OpKind::ReduceMean || !reducesLastAxisKeepdim(MeanN) ||
      MeanN.Inputs[0] != M.XNode || !oneUse(Uses, Mean))
    return std::nullopt;

  const Shape &XS = G.node(M.XNode).OutShape;
  if (XS.rank() < 1)
    return std::nullopt;
  M.H = XS.dim(XS.rank() - 1);
  if (M.H < 1)
    return std::nullopt;
  M.Rows = XS.numElements() / M.H;
  // Gamma/Beta broadcast along the last dim only: [H] modulo leading 1s.
  for (NodeId Param : {M.GammaNode, M.BetaNode}) {
    const Shape &PS = G.node(Param).OutShape;
    if (PS.numElements() != M.H || PS.rank() < 1 ||
        PS.dim(PS.rank() - 1) != M.H || !leadingDimsAreOnes(PS, 1))
      return std::nullopt;
  }
  if (!(RootN.OutShape == XS))
    return std::nullopt;

  M.Members = {Mean, D, Sq, Var, E, StdN, Norm, M2, Root};
  return M;
}

namespace {

template <typename MatchT>
bool coversExactly(const MatchT &M, const std::vector<NodeId> &Members) {
  if (M.Members.size() != Members.size())
    return false;
  std::vector<NodeId> A = M.Members, B = Members;
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  return A == B;
}

} // namespace

std::optional<AttentionMatch>
dnnfusion::matchAttentionBlock(const Graph &G, const UseCount &Uses,
                               const std::vector<NodeId> &Members) {
  for (NodeId Id : Members) {
    if (G.node(Id).Kind != OpKind::MatMul)
      continue;
    if (std::optional<AttentionMatch> M = matchAttention(G, Uses, Id))
      if (coversExactly(*M, Members))
        return M;
  }
  return std::nullopt;
}

std::optional<LayerNormMatch>
dnnfusion::matchLayerNormBlock(const Graph &G, const UseCount &Uses,
                               const std::vector<NodeId> &Members) {
  for (NodeId Id : Members) {
    if (G.node(Id).Kind != OpKind::Add)
      continue;
    if (std::optional<LayerNormMatch> M = matchLayerNorm(G, Uses, Id))
      if (coversExactly(*M, Members))
        return M;
  }
  return std::nullopt;
}

namespace {

/// Kahn feasibility check over the condensed group graph (edge
/// multiplicity mirrors finalizePlan's counting).
bool groupsAcyclic(const Graph &G,
                   const std::vector<std::vector<NodeId>> &Groups) {
  std::vector<int> GroupOf(static_cast<size_t>(G.numNodes()), -1);
  for (size_t GI = 0; GI < Groups.size(); ++GI)
    for (NodeId Id : Groups[GI])
      GroupOf[static_cast<size_t>(Id)] = static_cast<int>(GI);
  std::vector<std::vector<int>> Users(Groups.size());
  std::vector<int> Pending(Groups.size(), 0);
  for (size_t GI = 0; GI < Groups.size(); ++GI)
    for (NodeId Id : Groups[GI])
      for (NodeId In : G.node(Id).Inputs) {
        int PG = GroupOf[static_cast<size_t>(In)];
        if (PG < 0 || static_cast<size_t>(PG) == GI)
          continue;
        Users[static_cast<size_t>(PG)].push_back(static_cast<int>(GI));
        ++Pending[GI];
      }
  std::vector<int> Ready;
  for (size_t GI = 0; GI < Groups.size(); ++GI)
    if (Pending[GI] == 0)
      Ready.push_back(static_cast<int>(GI));
  size_t Done = 0;
  while (!Ready.empty()) {
    int B = Ready.back();
    Ready.pop_back();
    ++Done;
    for (int U : Users[static_cast<size_t>(B)])
      if (--Pending[static_cast<size_t>(U)] == 0)
        Ready.push_back(U);
  }
  return Done == Groups.size();
}

} // namespace

int dnnfusion::carveTransformerGroups(const Graph &G, FusionPlan &Plan,
                                      bool Attention, bool Norm) {
  if (!Attention && !Norm)
    return 0;
  std::vector<std::vector<NodeId>> Consumers = G.computeConsumers();
  UseCount Uses = [&](NodeId Id) {
    return static_cast<int>(Consumers[static_cast<size_t>(Id)].size());
  };

  std::vector<char> Claimed(static_cast<size_t>(G.numNodes()), 0);
  std::vector<std::vector<NodeId>> Claims;
  auto TryClaim = [&](const std::vector<NodeId> &Members) {
    for (NodeId Id : Members)
      if (Claimed[static_cast<size_t>(Id)])
        return;
    for (NodeId Id : Members)
      Claimed[static_cast<size_t>(Id)] = 1;
    Claims.push_back(Members);
  };
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead)
      continue;
    if (Attention && N.Kind == OpKind::MatMul)
      if (std::optional<AttentionMatch> M = matchAttention(G, Uses, Id))
        TryClaim(M->Members);
    if (Norm && N.Kind == OpKind::Add)
      if (std::optional<LayerNormMatch> M = matchLayerNorm(G, Uses, Id))
        TryClaim(M->Members);
  }
  if (Claims.empty())
    return 0;

  // Residues of broken-up blocks, split into weakly-connected components
  // so unrelated halves of a block do not stay artificially glued (glue
  // through a claimed member is gone). IndexOf maps a node to its position
  // in the current residue; it is reset after each block.
  std::vector<std::vector<NodeId>> Groups;
  std::vector<int> IndexOf(static_cast<size_t>(G.numNodes()), -1);
  for (const FusionBlock &B : Plan.Blocks) {
    std::vector<NodeId> Residual;
    for (NodeId Id : B.Members)
      if (!Claimed[static_cast<size_t>(Id)])
        Residual.push_back(Id);
    if (Residual.empty())
      continue;
    std::vector<int> Parent(Residual.size());
    for (size_t I = 0; I < Parent.size(); ++I)
      Parent[I] = static_cast<int>(I);
    std::function<int(int)> Find = [&](int X) {
      while (Parent[static_cast<size_t>(X)] != X)
        X = Parent[static_cast<size_t>(X)] =
            Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
      return X;
    };
    for (size_t I = 0; I < Residual.size(); ++I)
      IndexOf[static_cast<size_t>(Residual[I])] = static_cast<int>(I);
    for (size_t I = 0; I < Residual.size(); ++I)
      for (NodeId In : G.node(Residual[I]).Inputs) {
        int J = IndexOf[static_cast<size_t>(In)];
        if (J >= 0)
          Parent[static_cast<size_t>(Find(static_cast<int>(I)))] = Find(J);
      }
    for (NodeId Id : Residual)
      IndexOf[static_cast<size_t>(Id)] = -1;
    std::map<int, std::vector<NodeId>> Components;
    for (size_t I = 0; I < Residual.size(); ++I)
      Components[Find(static_cast<int>(I))].push_back(Residual[I]);
    for (auto &[RootIdx, Component] : Components)
      Groups.push_back(std::move(Component));
  }
  size_t NumResidual = Groups.size();
  Groups.insert(Groups.end(), Claims.begin(), Claims.end());

  if (!groupsAcyclic(G, Groups)) {
    // A residue still cycles with a claim (it both feeds and consumes
    // one). Matched subgraphs are convex, so all-singleton residues are
    // always schedulable — rare enough that finer splitting isn't worth
    // the code.
    Groups.erase(Groups.begin(),
                 Groups.begin() + static_cast<std::ptrdiff_t>(NumResidual));
    std::vector<std::vector<NodeId>> Singletons;
    for (const FusionBlock &B : Plan.Blocks)
      for (NodeId Id : B.Members)
        if (!Claimed[static_cast<size_t>(Id)])
          Singletons.push_back({Id});
    Groups.insert(Groups.begin(), Singletons.begin(), Singletons.end());
  }

  Plan = planFromGroups(G, Groups);
  return static_cast<int>(Claims.size());
}
