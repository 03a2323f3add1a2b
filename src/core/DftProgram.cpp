//===- core/DftProgram.cpp - Compiled DFT instruction tape ----------------------===//

#include "core/DftProgram.h"

#include "support/Error.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstring>

using namespace dnnfusion;

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

namespace {

/// A value reference handed from a child lowering to its consumer: either
/// a chunk register or a zero-copy contiguous buffer slot.
struct ValueRef {
  bool IsSlot = false;
  int Index = -1;
};

struct Lowering {
  const DftTree &T;
  DftProgram P;

  std::vector<int> FreeRegs;
  int RegHighWater = 0;

  explicit Lowering(const DftTree &T) : T(T) {}

  int allocReg() {
    if (!FreeRegs.empty()) {
      int R = FreeRegs.back();
      FreeRegs.pop_back();
      return R;
    }
    return RegHighWater++;
  }
  void freeRef(const ValueRef &V) {
    if (!V.IsSlot)
      FreeRegs.push_back(V.Index);
  }

  int allocSet() { return P.NumIndexSets++; }

  int addChain(const IndexChain &Chain) {
    P.Chains.push_back(Chain);
    return static_cast<int>(P.Chains.size()) - 1;
  }

  /// Lowers the subtree at \p NodeIdx evaluated over index set \p Set
  /// (\p Contig = the implicit contiguous set 0).
  ValueRef lower(int NodeIdx, int Set, bool Contig) {
    const DftNode &N = T.Nodes[static_cast<size_t>(NodeIdx)];
    switch (N.K) {
    case DftNode::Kind::Leaf: {
      if (Contig)
        return ValueRef{true, N.BufferSlot}; // Contiguous-leaf zero-copy.
      DftInstr I;
      I.K = DftInstr::Kind::LoadGather;
      I.Origin = N.Origin;
      I.Dst = allocReg();
      I.Ctx = Set;
      I.CtxContig = false;
      I.Slot = N.BufferSlot;
      P.Instrs.push_back(std::move(I));
      return ValueRef{false, P.Instrs.back().Dst};
    }

    case DftNode::Kind::Eltwise: {
      DNNF_CHECK(N.Children.size() <= DftEltwiseMaxArity,
                 "elementwise arity exceeds %d", DftEltwiseMaxArity);
      ValueRef Refs[DftEltwiseMaxArity];
      for (size_t C = 0; C < N.Children.size(); ++C) {
        const DftEdge &E = N.Children[C];
        int ChildSet = Set;
        bool ChildContig = Contig;
        if (!chainIsIdentity(E.Maps)) {
          // Broadcast fast paths: a mapped *leaf* whose chain collapses
          // to a fixed index (scalar splat) or a periodic row (bias) skips
          // the MapIndices + LoadGather pair entirely. Same loads, same
          // values — a pure instruction-selection change.
          const DftNode &Child = T.Nodes[static_cast<size_t>(E.Child)];
          if (Child.K == DftNode::Kind::Leaf) {
            std::optional<int64_t> Splat = chainConstantIndex(E.Maps);
            std::optional<std::pair<int64_t, int64_t>> Periodic;
            if (!Splat)
              Periodic = chainPeriodicRow(E.Maps);
            if (Splat || (Periodic && Contig)) {
              DftInstr L;
              L.K = Splat ? DftInstr::Kind::LoadSplat
                          : DftInstr::Kind::LoadPeriodic;
              L.Origin = Child.Origin;
              L.Dst = allocReg();
              L.Ctx = Set;
              L.CtxContig = Contig;
              L.Slot = Child.BufferSlot;
              L.MapBase = Splat ? *Splat : Periodic->first;
              L.MapPeriod = Splat ? 0 : Periodic->second;
              P.Instrs.push_back(std::move(L));
              Refs[C] = ValueRef{false, P.Instrs.back().Dst};
              continue;
            }
          }
          DftInstr M;
          M.K = DftInstr::Kind::MapIndices;
          M.Origin = N.Origin;
          M.Src = Set;
          M.CtxContig = Contig;
          M.Dst = allocSet();
          M.Chain = addChain(E.Maps);
          ChildSet = M.Dst;
          ChildContig = false;
          P.Instrs.push_back(std::move(M));
        }
        Refs[C] = lower(E.Child, ChildSet, ChildContig);
      }
      // Identity-chain passthrough: the child's value IS this node's
      // value — a register alias, no instruction.
      if (N.Op == OpKind::Identity && N.Children.size() == 1)
        return Refs[0];
      DftInstr I;
      I.K = DftInstr::Kind::Eltwise;
      I.Origin = N.Origin;
      I.Ctx = Set;
      I.CtxContig = Contig;
      I.EOp = N.Op;
      I.Params = N.Params;
      I.NumArgs = static_cast<int>(N.Children.size());
      for (int C = 0; C < I.NumArgs; ++C) {
        I.Args[C].IsSlot = Refs[static_cast<size_t>(C)].IsSlot;
        I.Args[C].Index = Refs[static_cast<size_t>(C)].Index;
      }
      for (size_t C = 0; C < N.Children.size(); ++C)
        freeRef(Refs[C]);
      I.Dst = allocReg();
      P.Instrs.push_back(std::move(I));
      return ValueRef{false, P.Instrs.back().Dst};
    }

    case DftNode::Kind::Router: {
      DftInstr S;
      S.K = DftInstr::Kind::RouterSplit;
      S.Origin = N.Origin;
      S.Src = Set;
      S.CtxContig = Contig;
      S.Domain = N.Domain;
      S.RouterAxis = N.RouterAxis;
      S.BranchStarts = N.BranchStarts;
      for (size_t B = 0; B < N.Children.size(); ++B)
        S.BranchSets.push_back(allocSet());
      std::vector<int> BranchSets = S.BranchSets;
      P.Instrs.push_back(std::move(S));

      std::vector<int> BranchRegs;
      for (size_t B = 0; B < N.Children.size(); ++B) {
        const DftEdge &E = N.Children[B];
        if (!chainIsIdentity(E.Maps)) {
          // In-place on the compacted branch set, positions preserved.
          DftInstr M;
          M.K = DftInstr::Kind::MapIndices;
          M.Origin = N.Origin;
          M.Src = BranchSets[B];
          M.CtxContig = false;
          M.Dst = BranchSets[B];
          M.Chain = addChain(E.Maps);
          P.Instrs.push_back(std::move(M));
        }
        ValueRef R = lower(E.Child, BranchSets[B], /*Contig=*/false);
        DNNF_CHECK(!R.IsSlot, "router branch lowered to a slot reference");
        BranchRegs.push_back(R.Index);
      }

      DftInstr M;
      M.K = DftInstr::Kind::RouterMerge;
      M.Origin = N.Origin;
      M.Ctx = Set;
      M.CtxContig = Contig;
      M.BranchSets = BranchSets;
      M.BranchRegs = BranchRegs;
      // Allocate the destination while the branch registers are still
      // live: the scatter must never alias one of its sources.
      M.Dst = allocReg();
      for (int R : BranchRegs)
        FreeRegs.push_back(R);
      P.Instrs.push_back(std::move(M));
      return ValueRef{false, P.Instrs.back().Dst};
    }
    }
    reportFatalError("unreachable DFT node kind");
  }
};

} // namespace

DftProgram DftProgram::compile(const DftTree &T) {
  Lowering L(T);
  ValueRef Root = L.lower(T.Root, /*Set=*/0, /*Contig=*/true);
  if (Root.IsSlot) {
    // Bare contiguous leaf (or identity passthrough of one): the program
    // is a single chunk copy.
    DftInstr I;
    I.K = DftInstr::Kind::Eltwise;
    I.Origin = T.Nodes[static_cast<size_t>(T.Root)].Origin;
    I.Dst = OutputReg;
    I.Ctx = 0;
    I.CtxContig = true;
    I.EOp = OpKind::Identity;
    I.NumArgs = 1;
    I.Args[0].IsSlot = true;
    I.Args[0].Index = Root.Index;
    L.P.Instrs.push_back(std::move(I));
  } else {
    // The root value's producer is always the last emitted instruction;
    // retarget it at the chunk output span.
    DNNF_CHECK(!L.P.Instrs.empty() && L.P.Instrs.back().Dst == Root.Index,
               "root register not produced by the final instruction");
    L.P.Instrs.back().Dst = OutputReg;
  }
  L.P.NumValueRegs = L.RegHighWater;
  L.P.OutElems = T.OutElems;
  return std::move(L.P);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

/// Per-task execution state: NumValueRegs chunk lanes plus NumIndexSets
/// index/position lanes, allocated once per parallel slice.
struct ChunkState {
  std::vector<float> Regs;
  std::vector<int64_t> Idx;
  std::vector<int32_t> Pos;
  std::vector<int> Counts;

  ChunkState(const DftProgram &P)
      : Regs(static_cast<size_t>(P.NumValueRegs) * DftMaxChunk),
        Idx(static_cast<size_t>(P.NumIndexSets) * DftMaxChunk),
        Pos(static_cast<size_t>(P.NumIndexSets) * DftMaxChunk),
        Counts(static_cast<size_t>(P.NumIndexSets), 0) {}

  float *reg(int R) { return Regs.data() + static_cast<size_t>(R) * DftMaxChunk; }
  int64_t *idx(int S) { return Idx.data() + static_cast<size_t>(S) * DftMaxChunk; }
  int32_t *pos(int S) { return Pos.data() + static_cast<size_t>(S) * DftMaxChunk; }
};

void runChunk(const DftProgram &P, const std::vector<const float *> &Slots,
              int64_t Base, int Count, float *__restrict Out, ChunkState &S,
              EltwiseChunkFn Simd) {
  S.Counts[0] = Count;
  for (const DftInstr &I : P.Instrs) {
    switch (I.K) {
    case DftInstr::Kind::MapIndices: {
      const IndexChain &Chain = P.Chains[static_cast<size_t>(I.Chain)];
      int64_t *Dst = S.idx(I.Dst);
      int Cnt;
      size_t First = 0;
      if (I.CtxContig) {
        Cnt = Count;
        Chain[0].mapContiguous(Base, Dst, Cnt);
        First = 1;
      } else {
        Cnt = S.Counts[static_cast<size_t>(I.Src)];
        if (I.Dst != I.Src)
          std::memcpy(Dst, S.idx(I.Src),
                      static_cast<size_t>(Cnt) * sizeof(int64_t));
      }
      for (size_t M = First; M < Chain.size(); ++M)
        Chain[M].mapIndices(Dst, Dst, Cnt);
      S.Counts[static_cast<size_t>(I.Dst)] = Cnt;
      break;
    }

    case DftInstr::Kind::LoadGather: {
      int Cnt = S.Counts[static_cast<size_t>(I.Ctx)];
      const int64_t *__restrict Idx = S.idx(I.Ctx);
      const float *__restrict Buf = Slots[static_cast<size_t>(I.Slot)];
      float *__restrict Dst =
          I.Dst == DftProgram::OutputReg ? Out : S.reg(I.Dst);
      for (int E = 0; E < Cnt; ++E)
        Dst[E] = Buf[Idx[E]];
      break;
    }

    case DftInstr::Kind::LoadSplat: {
      int Cnt = I.CtxContig ? Count : S.Counts[static_cast<size_t>(I.Ctx)];
      float V = Slots[static_cast<size_t>(I.Slot)][I.MapBase];
      float *__restrict Dst =
          I.Dst == DftProgram::OutputReg ? Out : S.reg(I.Dst);
      for (int E = 0; E < Cnt; ++E)
        Dst[E] = V;
      break;
    }

    case DftInstr::Kind::LoadPeriodic: {
      // Lowering only emits this for contiguous contexts: the source
      // indices for [Base, Base + Count) are period-aligned runs.
      const float *Src = Slots[static_cast<size_t>(I.Slot)] + I.MapBase;
      float *Dst = I.Dst == DftProgram::OutputReg ? Out : S.reg(I.Dst);
      int64_t Off = Base % I.MapPeriod;
      for (int E = 0; E < Count;) {
        int Run = static_cast<int>(
            std::min<int64_t>(Count - E, I.MapPeriod - Off));
        std::memcpy(Dst + E, Src + Off,
                    static_cast<size_t>(Run) * sizeof(float));
        E += Run;
        Off = 0;
      }
      break;
    }

    case DftInstr::Kind::Eltwise: {
      int Cnt = I.CtxContig ? Count : S.Counts[static_cast<size_t>(I.Ctx)];
      const float *Args[DftEltwiseMaxArity];
      for (int A = 0; A < I.NumArgs; ++A)
        Args[A] = I.Args[A].IsSlot
                      ? Slots[static_cast<size_t>(I.Args[A].Index)] + Base
                      : S.reg(I.Args[A].Index);
      float *Dst = I.Dst == DftProgram::OutputReg ? Out : S.reg(I.Dst);
      // SIMD tier first; false = op not covered, scalar reference.
      if (!Simd || !Simd(I.EOp, I.Params, Args, I.NumArgs, Dst, Cnt))
        evalElementwiseChunk(I.EOp, I.Params, Args, I.NumArgs, Dst, Cnt);
      break;
    }

    case DftInstr::Kind::RouterSplit: {
      int Cnt = I.CtxContig ? Count : S.Counts[static_cast<size_t>(I.Src)];
      const int64_t *SrcIdx = I.CtxContig ? nullptr : S.idx(I.Src);
      int Rank = I.Domain.rank();
      int64_t AxisInner = 1;
      for (int D = I.RouterAxis + 1; D < Rank; ++D)
        AxisInner *= I.Domain.dim(D);
      int64_t AxisExtent = I.Domain.dim(I.RouterAxis);
      int NumBranches = static_cast<int>(I.BranchSets.size());
      for (int B = 0; B < NumBranches; ++B)
        S.Counts[static_cast<size_t>(I.BranchSets[static_cast<size_t>(B)])] =
            0;
      for (int E = 0; E < Cnt; ++E) {
        int64_t Flat = SrcIdx ? SrcIdx[E] : Base + E;
        int64_t AxisCoord = (Flat / AxisInner) % AxisExtent;
        int B = 0;
        while (B + 1 < NumBranches &&
               I.BranchStarts[static_cast<size_t>(B + 1)] <= AxisCoord)
          ++B;
        int64_t BranchLen =
            (B + 1 < NumBranches ? I.BranchStarts[static_cast<size_t>(B + 1)]
                                 : AxisExtent) -
            I.BranchStarts[static_cast<size_t>(B)];
        int64_t Outer = Flat / (AxisInner * AxisExtent);
        int64_t Inner = Flat % AxisInner;
        int64_t LocalAxis =
            AxisCoord - I.BranchStarts[static_cast<size_t>(B)];
        int Set = I.BranchSets[static_cast<size_t>(B)];
        int At = S.Counts[static_cast<size_t>(Set)]++;
        S.idx(Set)[At] = (Outer * BranchLen + LocalAxis) * AxisInner + Inner;
        S.pos(Set)[At] = E;
      }
      break;
    }

    case DftInstr::Kind::RouterMerge: {
      float *Dst = I.Dst == DftProgram::OutputReg ? Out : S.reg(I.Dst);
      for (size_t B = 0; B < I.BranchSets.size(); ++B) {
        int Set = I.BranchSets[B];
        int Cnt = S.Counts[static_cast<size_t>(Set)];
        const int32_t *Pos = S.pos(Set);
        const float *Src = S.reg(I.BranchRegs[B]);
        for (int E = 0; E < Cnt; ++E)
          Dst[Pos[E]] = Src[E];
      }
      break;
    }
    }
  }
}

} // namespace

void DftProgram::execute(const std::vector<const float *> &Slots, float *Out,
                         int ChunkSize, KernelLevel Level) const {
  DNNF_CHECK(ChunkSize > 0 && ChunkSize <= DftMaxChunk,
             "chunk size %d out of range", ChunkSize);
  EltwiseChunkFn Simd = resolveEltwiseChunk(Level);
  parallelFor(OutElems, [&](int64_t Begin, int64_t End) {
    ChunkState State(*this);
    for (int64_t Base = Begin; Base < End; Base += ChunkSize) {
      int Count = static_cast<int>(Base + ChunkSize <= End ? ChunkSize
                                                           : End - Base);
      runChunk(*this, Slots, Base, Count, Out + Base, State, Simd);
    }
  });
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

std::string DftProgram::describe() const {
  auto RegName = [](int R) {
    return R == OutputReg ? std::string("out") : formatString("%%r%d", R);
  };
  std::string Text;
  for (const DftInstr &I : Instrs) {
    switch (I.K) {
    case DftInstr::Kind::MapIndices:
      Text += formatString("ix%d = map.chain%d(%s)\n", I.Dst, I.Chain,
                           I.CtxContig ? "contig"
                                       : formatString("ix%d", I.Src).c_str());
      break;
    case DftInstr::Kind::LoadGather:
      Text += formatString("%s = load.gather buf%d[ix%d]\n",
                           RegName(I.Dst).c_str(), I.Slot, I.Ctx);
      break;
    case DftInstr::Kind::LoadSplat:
      Text += formatString("%s = load.splat buf%d[%lld]\n",
                           RegName(I.Dst).c_str(), I.Slot,
                           static_cast<long long>(I.MapBase));
      break;
    case DftInstr::Kind::LoadPeriodic:
      Text += formatString("%s = load.periodic buf%d[%lld + i %% %lld]\n",
                           RegName(I.Dst).c_str(), I.Slot,
                           static_cast<long long>(I.MapBase),
                           static_cast<long long>(I.MapPeriod));
      break;
    case DftInstr::Kind::Eltwise: {
      std::vector<std::string> Args;
      for (int A = 0; A < I.NumArgs; ++A)
        Args.push_back(I.Args[A].IsSlot
                           ? formatString("buf%d[contig]", I.Args[A].Index)
                           : RegName(I.Args[A].Index));
      Text += formatString("%s = %s(%s)\n", RegName(I.Dst).c_str(),
                           opKindName(I.EOp),
                           joinStrings(Args, ", ").c_str());
      break;
    }
    case DftInstr::Kind::RouterSplit: {
      std::vector<std::string> Sets;
      for (int Set : I.BranchSets)
        Sets.push_back(formatString("ix%d", Set));
      Text += formatString("split.axis%d %s -> %s\n", I.RouterAxis,
                           I.CtxContig ? "contig"
                                       : formatString("ix%d", I.Src).c_str(),
                           joinStrings(Sets, ", ").c_str());
      break;
    }
    case DftInstr::Kind::RouterMerge: {
      std::vector<std::string> Parts;
      for (size_t B = 0; B < I.BranchRegs.size(); ++B)
        Parts.push_back(formatString("%s@ix%d",
                                     RegName(I.BranchRegs[B]).c_str(),
                                     I.BranchSets[B]));
      Text += formatString("%s = merge(%s)\n", RegName(I.Dst).c_str(),
                           joinStrings(Parts, ", ").c_str());
      break;
    }
    }
  }
  return Text;
}
