//===- runtime/ModelCompiler.cpp - End-to-end compilation -----------------------===//

#include "runtime/ModelCompiler.h"

#include "core/TransformerPatterns.h"
#include "ops/OpSchema.h"
#include "serialize/CompilationCache.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

using namespace dnnfusion;

int64_t CompiledModel::totalFlops() const {
  int64_t Total = 0;
  for (int64_t F : BlockFlops)
    Total += F;
  return Total;
}

int64_t dnnfusion::shareConstants(CompiledModel &M, const CompiledModel &From) {
  // Candidates by byte size; the bytes themselves decide.
  std::multimap<size_t, const Tensor *> BySize;
  for (int Id = 0; Id < From.G.numNodes(); ++Id) {
    const Node &N = From.G.node(Id);
    if (!N.Dead && N.Kind == OpKind::Constant && !N.ConstValue.isNull())
      BySize.emplace(N.ConstValue.byteSize(), &N.ConstValue);
  }
  int64_t Shared = 0;
  for (int Id = 0; Id < M.G.numNodes(); ++Id) {
    Node &N = M.G.node(Id);
    if (N.Dead || N.Kind != OpKind::Constant || N.ConstValue.isNull())
      continue;
    const size_t Bytes = N.ConstValue.byteSize();
    auto Range = BySize.equal_range(Bytes);
    for (auto It = Range.first; It != Range.second; ++It) {
      const Tensor &Cand = *It->second;
      if (Cand.shape() == N.ConstValue.shape() &&
          Cand.dtype() == N.ConstValue.dtype() &&
          (Cand.sharesStorageWith(N.ConstValue) ||
           std::memcmp(Cand.data(), N.ConstValue.data(), Bytes) == 0)) {
        N.ConstValue = Cand;
        Shared += static_cast<int64_t>(Bytes);
        break;
      }
    }
  }
  return Shared;
}

int dnnfusion::mergeMovementBlocks(const Graph &G, FusionPlan &Plan) {
  // A pure data-movement block with a single producing block merges into
  // that producer: the movement becomes index arithmetic on the producer's
  // output expression, eliminating both the kernel launch and the copy.
  int Merges = 0;
  std::vector<std::vector<NodeId>> Groups;
  std::vector<int> GroupOf(static_cast<size_t>(G.numNodes()), -1);
  for (const FusionBlock &B : Plan.Blocks) {
    for (NodeId Id : B.Members)
      GroupOf[static_cast<size_t>(Id)] = static_cast<int>(Groups.size());
    Groups.push_back(B.Members);
  }

  // Union-find over group indices.
  std::vector<int> Parent(Groups.size());
  for (size_t I = 0; I < Parent.size(); ++I)
    Parent[I] = static_cast<int>(I);
  std::function<int(int)> Find = [&](int X) {
    while (Parent[static_cast<size_t>(X)] != X)
      X = Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
    return X;
  };

  for (size_t BI = 0; BI < Plan.Blocks.size(); ++BI) {
    const FusionBlock &B = Plan.Blocks[BI];
    bool AllMovement = true;
    for (NodeId Id : B.Members)
      AllMovement &= isFoldableMovementOp(G.node(Id).Kind);
    if (!AllMovement)
      continue;
    // Every external producer must be a constant/input or live in one
    // producing block; single-input movement chains guarantee this.
    int ProducerGroup = -1;
    bool Mergeable = true;
    for (NodeId Ext : B.ExternalInputs) {
      const Node &P = G.node(Ext);
      if (P.Kind == OpKind::Input || P.Kind == OpKind::Constant)
        continue;
      int PG = Find(GroupOf[static_cast<size_t>(Ext)]);
      if (ProducerGroup < 0)
        ProducerGroup = PG;
      else if (ProducerGroup != PG)
        Mergeable = false;
    }
    if (!Mergeable || ProducerGroup < 0 ||
        ProducerGroup == Find(static_cast<int>(BI)))
      continue;
    // Merge this movement block into its producer group.
    int Self = Find(static_cast<int>(BI));
    Parent[static_cast<size_t>(Self)] = ProducerGroup;
    ++Merges;
  }

  if (Merges == 0)
    return 0;

  std::vector<std::vector<NodeId>> Merged(Groups.size());
  for (size_t I = 0; I < Groups.size(); ++I) {
    int Root = Find(static_cast<int>(I));
    auto &Dst = Merged[static_cast<size_t>(Root)];
    Dst.insert(Dst.end(), Groups[I].begin(), Groups[I].end());
  }
  std::vector<std::vector<NodeId>> Compacted;
  for (auto &Group : Merged)
    if (!Group.empty())
      Compacted.push_back(std::move(Group));
  Plan = planFromGroups(G, Compacted);
  return Merges;
}

namespace {

/// Packs every constant MatMul/Gemm weight operand once, recording the
/// pack on the model and pointing the consuming steps at it. Deduplicates
/// by (weight node, geometry) so shared weights pack a single time. Purely
/// derived state: never serialized, rebuilt identically on loadModel and
/// cache hits.
void buildPrepack(CompiledModel &M, const Graph &G) {
  M.Prepack.clear();
  for (CompiledBlock &B : M.Blocks)
    for (CompiledStep &S : B.Steps)
      S.PrepackIndex = -1;
  const KernelConfig &KC = M.Codegen.Kernels;
  std::map<std::tuple<NodeId, int64_t, int64_t, int>, int> Dedup;
  for (CompiledBlock &B : M.Blocks) {
    for (CompiledStep &S : B.Steps) {
      if (S.K != CompiledStep::Kind::RefKernel ||
          (S.Op != OpKind::MatMul && S.Op != OpKind::Gemm) ||
          S.InputSlots.size() < 2)
        continue;
      int Slot = S.InputSlots[1];
      if (Slot >= static_cast<int>(B.ExternalInputs.size()))
        continue; // Block-internal producer: packed at run time.
      NodeId WId = B.ExternalInputs[static_cast<size_t>(Slot)];
      const Node &W = G.node(WId);
      if (W.Kind != OpKind::Constant)
        continue;
      const Shape &BS = S.InputShapes[1];
      int64_t K, N, KStride, NStride, Slices = 1;
      int TB = 0;
      if (S.Op == OpKind::Gemm) {
        TB = S.Attrs.getInt("transB", 0) != 0 ? 1 : 0;
        K = BS.dim(TB ? 1 : 0);
        N = BS.dim(TB ? 0 : 1);
        KStride = TB ? 1 : N;
        NStride = TB ? K : 1;
      } else {
        int Rb = BS.rank();
        K = BS.dim(Rb - 2);
        N = BS.dim(Rb - 1);
        KStride = N;
        NStride = 1;
        Slices = BS.numElements() / (K * N);
      }
      // Output rows that reuse one B slice: the route's M.
      int64_t Rows = S.OutShape.numElements() / (N * Slices);
      int NR = packedGemmPanelWidth(KC, Rows, N, K, /*Prepacked=*/true);
      if (NR == 0)
        continue; // The packed kernel declines these shapes.
      auto Key = std::make_tuple(WId, K, N, TB);
      auto It = Dedup.find(Key);
      if (It == Dedup.end()) {
        PackedOperand P;
        P.K = K;
        P.N = N;
        P.NR = NR;
        P.Slices = Slices;
        P.Data.resize(static_cast<size_t>(P.sliceElems() * Slices));
        for (int64_t Sl = 0; Sl < Slices; ++Sl)
          packBPanels(W.ConstValue.data() + Sl * K * N, KStride, NStride, K,
                      N, NR, P.Data.data() + Sl * P.sliceElems());
        M.Prepack.push_back(std::move(P));
        It = Dedup
                 .emplace(Key, static_cast<int>(M.Prepack.size()) - 1)
                 .first;
      }
      S.PrepackIndex = It->second;
    }
  }
}

/// Shared tail of compilation: codegen, memory planning, stat tables.
void finishCompilation(CompiledModel &M, Graph &G) {
  WallTimer Timer;
  M.Blocks.reserve(M.Plan.Blocks.size());
  for (const FusionBlock &B : M.Plan.Blocks)
    M.Blocks.push_back(compileBlock(G, B, M.Codegen));
  buildPrepack(M, G);
  M.CodegenMs = Timer.millis();

  M.Memory = planMemory(G, M.Plan, M.Blocks, M.Codegen.Kernels);

  for (size_t BI = 0; BI < M.Plan.Blocks.size(); ++BI) {
    const FusionBlock &B = M.Plan.Blocks[BI];
    int64_t Flops = 0;
    for (NodeId Id : B.Members) {
      const Node &N = G.node(Id);
      Flops += flopCount(N.Kind, N.Attrs, G.inputShapes(Id), N.OutShape);
    }
    int64_t Read = 0, Written = 0;
    for (NodeId In : B.ExternalInputs)
      Read += G.node(In).outBytes();
    for (NodeId Out : B.Outputs)
      Written += G.node(Out).outBytes();
    M.BlockFlops.push_back(Flops);
    M.BlockBytesRead.push_back(Read);
    M.BlockBytesWritten.push_back(Written);
    M.BlockScratchBytes.push_back(M.Blocks[BI].scratchBytes());
  }

  for (int Id = 0; Id < G.numNodes(); ++Id)
    if (!G.node(Id).Dead && G.node(Id).Kind == OpKind::Input)
      M.InputIds.push_back(Id);
  M.Signature = computeSignature(G, M.InputIds);

  M.G = std::move(G);
}

} // namespace

Expected<CompiledModel>
dnnfusion::rebuildCompiledModel(Graph G, FusionPlan Plan,
                                const CodegenOptions &Codegen,
                                bool GraphAlreadyValidated) {
  if (!GraphAlreadyValidated)
    if (Status S = G.validate(); !S.ok())
      return S;
  CompiledModel M;
  M.Plan = std::move(Plan);
  M.Codegen = Codegen;
  // The plan is persisted input: verify() and the compilation tail
  // diagnose inconsistencies through DNNF_CHECK, so trap them into a
  // recoverable DataLoss error. Everything under the trap is pure
  // computation (no locks, no non-RAII state).
  try {
    ScopedFatalErrorTrap Trap;
    M.Plan.verify(G);
    finishCompilation(M, G);
  } catch (const detail::TrappedFatalError &E) {
    return Status::errorf(ErrorCode::DataLoss,
                          "persisted plan is inconsistent with its graph: %s",
                          E.Message.c_str());
  }
  return M;
}

Expected<CompiledModel>
dnnfusion::compileModelWithPlan(Graph G, FusionPlan Plan,
                                const CodegenOptions &Codegen) {
  if (Status S = G.validate(); !S.ok())
    return S;
  CompiledModel M;
  M.Plan = std::move(Plan);
  M.Codegen = Codegen;
  // External plans bypass the planner's own verification; the memory plan
  // assumes a valid topological block order, so check it here rather than
  // corrupting memory at run time.
  M.Plan.verify(G);
  finishCompilation(M, G);
  return M;
}

Expected<CompiledModel> dnnfusion::compileModel(Graph G,
                                                const CompileOptions &Options,
                                                LatencyOracle *Oracle) {
  // The trust boundary for user-supplied model structure: everything past
  // this validation may DNNF_CHECK internal invariants freely.
  if (Status S = G.validate(); !S.ok())
    return S;

  // Warm start: when a cache directory is configured, key on the content
  // of (graph, options, format version) — computed on the *input* graph,
  // before rewriting — and skip the whole planning pipeline on a hit. Any
  // lookup failure (absent, corrupt, version drift) is a miss; the clean
  // recompile below overwrites the entry.
  const bool UseCache = !Options.CacheDir.empty();
  uint64_t CacheKey = 0;
  if (UseCache) {
    CacheKey = CompilationCache::fingerprint(G, Options);
    // Transient read failures retry with backoff (counters under
    // "cache.lookup"); NotFound and DataLoss fall straight through to the
    // recompile below, as ever.
    Expected<CompiledModel> Cached = retryExpected<CompiledModel>(
        "cache.lookup", Options.CacheRetry, [&]() -> Expected<CompiledModel> {
          return CompilationCache(Options.CacheDir).lookup(CacheKey);
        });
    if (Cached.ok()) {
      Cached->CacheHit = true;
      // The execution-engine knobs are not part of the persisted artifact
      // (they change neither plan nor graph, hence neither the cache key):
      // adopt the caller's, and rebuild the derived prepack/scratch state
      // only when they differ from the knobs the loader already built
      // under (the defaults — engine knobs are not in the OPTS section).
      const KernelConfig &Want = Options.Codegen.Kernels;
      const KernelConfig Loaded = Cached->Codegen.Kernels;
      Cached->Codegen.Kernels = Want;
      if (Want.UsePackedGemm != Loaded.UsePackedGemm ||
          clampPackNR(Want.PackNR) != clampPackNR(Loaded.PackNR) ||
          clampPackMR(Want.PackMR) != clampPackMR(Loaded.PackMR)) {
        buildPrepack(*Cached, Cached->G);
        Cached->Memory.PackScratchBytes =
            computePackScratchBytes(Cached->G, Cached->Blocks, Want);
      }
      return Cached;
    }
  }

  CompiledModel M;
  WallTimer Timer;

  if (Options.EnableGraphRewriting) {
    Timer.reset();
    M.RewriteInfo = rewriteGraph(G, Options.Rewrite);
    M.RewriteMs = Timer.millis();
  }

  Timer.reset();
  if (Options.EnableFusion) {
    M.Plan = planFusion(G, Oracle, Options.Planner, &M.PlannerInfo);
    if (Options.EnableOtherOpts)
      mergeMovementBlocks(G, M.Plan);
    // Transformer carving: regroup matched attention / layernorm
    // subgraphs (which mapping-type analysis shatters across blocks) into
    // single blocks, which compileBlock then lowers to the fused
    // single-pass kernels.
    if (Options.Codegen.FuseAttention || Options.Codegen.FuseNorm)
      carveTransformerGroups(G, M.Plan, Options.Codegen.FuseAttention,
                             Options.Codegen.FuseNorm);
  } else {
    M.Plan = planNoFusion(G);
  }
  M.FusionPlanMs = Timer.millis();

  M.Codegen = Options.Codegen;
  if (!Options.EnableOtherOpts) {
    // Figure 7's "Other" bundle off: data movement stays materialized and
    // shared subtrees are recomputed rather than cached.
    M.Codegen.FoldDataMovement = false;
  }
  finishCompilation(M, G);
  if (UseCache) {
    // Best-effort: a failed store (after its transient-retry budget,
    // counted under "cache.store") leaves the cache cold, nothing more.
    (void)retryStatus("cache.store", Options.CacheRetry, [&] {
      return CompilationCache(Options.CacheDir)
          .store(CacheKey, M, Options.CacheMaxBytes);
    });
  }
  return M;
}
