//===- bench/micro_kernels.cpp - google-benchmark micro kernels -----------------------===//
//
// Micro-benchmarks (google-benchmark) isolating the mechanisms behind the
// end-to-end results: fused vs unfused elementwise chains, data-movement
// folding vs materialization, DFT chunk-size sensitivity, compiled-program
// evaluation, the GEMM kernels (naive, packed) the auto-tuner
// searches, and the narrow-N packed route against the naive row walk.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphBuilder.h"
#include "ops/Kernels.h"
#include "ops/KernelRegistry.h"
#include "ops/KernelsAttention.h"
#include "ops/KernelsGemmPacked.h"
#include "runtime/ExecutionContext.h"
#include "tensor/TensorUtils.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace dnnfusion;

namespace {

Graph elementwiseChain(int64_t N, int Depth) {
  GraphBuilder B(1);
  NodeId H = B.input(Shape({N}));
  for (int I = 0; I < Depth; ++I)
    H = B.unary(I % 3 == 0   ? OpKind::Relu
                : I % 3 == 1 ? OpKind::Sigmoid
                             : OpKind::Neg,
                H);
  B.markOutput(H);
  return B.take();
}

void runModel(benchmark::State &State, const CompiledModel &M) {
  ExecutionContext E(M);
  Rng R(3);
  std::vector<Tensor> Inputs;
  for (NodeId Id : M.InputIds) {
    Tensor T(M.G.node(Id).OutShape);
    fillRandom(T, R);
    Inputs.push_back(std::move(T));
  }
  for (auto _ : State) {
    E.run(Inputs);
    benchmark::ClobberMemory();
  }
}

void BM_ElementwiseChainUnfused(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  Opt.EnableFusion = false;
  Opt.EnableOtherOpts = false;
  CompiledModel M =
      cantFail(compileModel(elementwiseChain(State.range(0), 8), Opt));
  runModel(State, M);
}
BENCHMARK(BM_ElementwiseChainUnfused)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ElementwiseChainFused(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  CompiledModel M =
      cantFail(compileModel(elementwiseChain(State.range(0), 8), Opt));
  runModel(State, M);
}
BENCHMARK(BM_ElementwiseChainFused)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

Graph transposeChain(int64_t Side) {
  GraphBuilder B(2);
  NodeId X = B.input(Shape({Side, Side, 16}));
  NodeId T = B.transpose(X, {1, 0, 2});
  NodeId R = B.reshape(T, {Side * Side, 16});
  B.markOutput(B.relu(R));
  return B.take();
}

void BM_MovementFolded(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  CompiledModel M = cantFail(compileModel(transposeChain(State.range(0)), Opt));
  runModel(State, M);
}
BENCHMARK(BM_MovementFolded)->Arg(64)->Arg(160);

void BM_MovementMaterialized(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  Opt.EnableOtherOpts = false;
  CompiledModel M = cantFail(compileModel(transposeChain(State.range(0)), Opt));
  runModel(State, M);
}
BENCHMARK(BM_MovementMaterialized)->Arg(64)->Arg(160);

void BM_ChunkSize(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  Opt.Codegen.ChunkSize = static_cast<int>(State.range(0));
  CompiledModel M = cantFail(compileModel(elementwiseChain(1 << 16, 8), Opt));
  runModel(State, M);
}
BENCHMARK(BM_ChunkSize)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

// The fused chain executed as a compiled instruction tape.
void BM_ChainProgram(benchmark::State &State) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  CompiledModel M =
      cantFail(compileModel(elementwiseChain(State.range(0), 8), Opt));
  runModel(State, M);
}
BENCHMARK(BM_ChainProgram)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// The packed register-blocked micro kernel across blocking parameters
// (weights prepacked outside the loop, the serving hot path).
void BM_GemmPacked(benchmark::State &State) {
  int64_t N = 256;
  Rng R(5);
  Tensor A(Shape({N, N})), B(Shape({N, N})), C(Shape({N, N}));
  fillRandom(A, R);
  fillRandom(B, R);
  int MR = static_cast<int>(State.range(0));
  int NR = static_cast<int>(State.range(1));
  std::vector<float> Packed(
      static_cast<size_t>(packedPanelElems(N, N, NR)));
  packBPanels(B.data(), N, 1, N, N, NR, Packed.data());
  for (auto _ : State) {
    gemmPackedRows(A.data(), N, 1, Packed.data(), C.data(), N, 0, N, N, N,
                   MR, NR, nullptr);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * 2 * N * N * N);
}
BENCHMARK(BM_GemmPacked)
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({4, 32})
    ->Args({8, 32});

// The same packed micro kernel per kernel tier (0 = scalar, 1 = avx2). A
// tier the host cannot execute clamps down through resolveKernelLevel —
// the bench label records the requested tier, SetLabel the one that
// actually ran.
void BM_GemmPackedTier(benchmark::State &State) {
  int64_t N = 256;
  Rng R(5);
  Tensor A(Shape({N, N})), B(Shape({N, N})), C(Shape({N, N}));
  fillRandom(A, R);
  fillRandom(B, R);
  int MR = 8, NR = 32;
  std::vector<float> Packed(
      static_cast<size_t>(packedPanelElems(N, N, NR)));
  packBPanels(B.data(), N, 1, N, N, NR, Packed.data());
  KernelLevel Level = resolveKernelLevel(static_cast<int>(State.range(0)),
                                         dispatchFeatureMask());
  State.SetLabel(kernelLevelName(Level));
  for (auto _ : State) {
    gemmPackedRows(A.data(), N, 1, Packed.data(), C.data(), N, 0, N, N, N,
                   MR, NR, nullptr, Level);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * 2 * N * N * N);
}
BENCHMARK(BM_GemmPackedTier)->Arg(0)->Arg(1);

// The narrow-N route at the serving MLP's middle layer: W[1024,1024] x
// X[1024,N] at the N of a batch-1..8 bucket, through runRefKernel. Mode 0
// runs the naive row walk (UsePackedGemm off), 1 the packed engine at the
// scalar tier, 2 at avx2 (clamps to scalar on hosts without it; the label
// records what ran). The activation packs into caller scratch, as in a
// compiled model.
void BM_GemmNarrow(benchmark::State &State) {
  int Mode = static_cast<int>(State.range(0));
  int64_t M = 1024, K = 1024, N = State.range(1);
  Rng R(11);
  Tensor W(Shape({M, K})), X(Shape({K, N})), Out(Shape({M, N}));
  fillRandom(W, R);
  fillRandom(X, R);
  KernelConfig Config;
  Config.UsePackedGemm = Mode != 0;
  Config.ForceKernelLevel = Mode == 2 ? 1 : 0;
  std::vector<float> Scratch(
      static_cast<size_t>(packedPanelElems(K, N, GemmNarrowNR)));
  KernelRuntime Rt;
  Rt.PackScratch = Scratch.data();
  Rt.PackScratchElems = static_cast<int64_t>(Scratch.size());
  State.SetLabel(Mode == 0 ? "naive"
                           : kernelLevelName(effectiveKernelLevel(Config)));
  for (auto _ : State) {
    runRefKernel(OpKind::MatMul, AttrMap(), {&W, &X}, Out, Config, Rt);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * 2 * M * N * K);
}
BENCHMARK(BM_GemmNarrow)->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8}});

// Fused-attention inner loop per kernel tier. Both tiers are
// bit-identical here (the AVX2 rows vectorize the score/accumulate loops
// without touching the online-softmax order), so they differ in speed
// only.
void BM_FusedAttentionTier(benchmark::State &State) {
  int64_t Batches = 4, S = 128, Dh = 64;
  Rng R(7);
  Tensor Q(Shape({Batches, S, Dh})), Kt(Shape({Batches, Dh, S}));
  Tensor V(Shape({Batches, S, Dh})), Out(Shape({Batches, S, Dh}));
  fillRandom(Q, R);
  fillRandom(Kt, R);
  fillRandom(V, R);
  float Scale = 1.0f / std::sqrt(static_cast<float>(Dh));
  KernelLevel Level = resolveKernelLevel(static_cast<int>(State.range(0)),
                                         dispatchFeatureMask());
  State.SetLabel(kernelLevelName(Level));
  for (auto _ : State) {
    runFusedAttention(Q.data(), Kt.data(), V.data(), nullptr, 0, Scale,
                      /*Causal=*/true, Out.data(), Batches, S, Dh, nullptr,
                      Level);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * Batches * S * S * Dh * 2);
}
BENCHMARK(BM_FusedAttentionTier)->Arg(0)->Arg(1);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
