//===- bench/micro_kernels.cpp - google-benchmark micro kernels -----------------------===//
//
// Micro-benchmarks (google-benchmark) isolating the mechanisms behind the
// end-to-end results: fused vs unfused elementwise chains, data-movement
// folding vs materialization, DFT chunk-size sensitivity, compiled-program
// evaluation, the GEMM kernels (naive, packed) the auto-tuner
// searches, the narrow-N routes against the naive row walk, and the
// direct conv and pooling window loops.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphBuilder.h"
#include "ops/Kernels.h"
#include "ops/KernelRegistry.h"
#include "ops/KernelsAttention.h"
#include "ops/KernelsGemmPacked.h"
#include "ops/OpSchema.h"
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

// The packed micro kernel per kernel tier (0 = scalar, 1 = avx2) and panel
// width (GemmNarrowNR, GemmWideNR), weights prepacked outside the loop (the
// serving hot path). A tier the host cannot execute clamps down through
// resolveKernelLevel — the bench label records the requested tier,
// SetLabel the one that actually ran.
void BM_GemmPackedTier(benchmark::State &State) {
  int64_t N = 256;
  Rng R(5);
  Tensor A(Shape({N, N})), B(Shape({N, N})), C(Shape({N, N}));
  fillRandom(A, R);
  fillRandom(B, R);
  int NR = static_cast<int>(State.range(1));
  std::vector<float> Packed(
      static_cast<size_t>(packedPanelElems(N, N, NR)));
  packBPanels(B.data(), N, 1, N, N, NR, Packed.data());
  KernelLevel Level = resolveKernelLevel(static_cast<int>(State.range(0)),
                                         dispatchFeatureMask());
  State.SetLabel(kernelLevelName(Level));
  for (auto _ : State) {
    gemmPackedRows(A.data(), N, 1, Packed.data(), C.data(), N, 0, N, N, N,
                   NR, nullptr, Level);
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * 2 * N * N * N);
}
BENCHMARK(BM_GemmPackedTier)
    ->ArgsProduct({{0, 1}, {GemmNarrowNR, GemmWideNR}});

// The narrow-N routes at the serving MLP's three layer shapes: W[M,K] x
// X[K,N] at the N of a batch-1..8 bucket, through runRefKernel. Arguments:
// mode, N, layer. Mode 0 runs the naive row walk (UsePackedGemm off), 1
// the packed routes at the scalar tier, 2 at avx2 (clamps to scalar on
// hosts without it; the label records what ran). Layer 0 is the middle
// W[1024,1024], 1 the first W[1024,256], 2 the last W[64,1024]. N <= 4
// takes the narrow-rows tile, N = 5..8 the 8-wide panel, whose activation
// packs into caller scratch, as in a compiled model.
void BM_GemmNarrow(benchmark::State &State) {
  int Mode = static_cast<int>(State.range(0));
  int64_t N = State.range(1);
  static constexpr int64_t Layers[][2] = {{1024, 1024}, {1024, 256},
                                          {64, 1024}};
  int64_t M = Layers[State.range(2)][0], K = Layers[State.range(2)][1];
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
BENCHMARK(BM_GemmNarrow)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2}});

// The direct conv loop (UsePackedGemm off, so every case runs it, with a
// bias) over the shape classes the zoo's direct calls take: depthwise
// 3x3 over 32x112^2 and, at stride 2, over 96x112^2; depthwise 5x5 over
// 240x28^2; a 3-filter 3x3 conv over 16x56^2; a 3-D depthwise 3x3x3 over
// 32x8x28^2; and a 1-D 3-tap conv, 64 to 64 channels over 1024. Pads keep
// the spatial size.
void BM_ConvDirect(benchmark::State &State) {
  struct Case {
    const char *Name;
    std::vector<int64_t> X;
    int64_t F, Group, Kernel, Stride;
  };
  static const Case Cases[] = {
      {"dw3x3 32x112^2", {1, 32, 112, 112}, 32, 32, 3, 1},
      {"dw3x3/2 96x112^2", {1, 96, 112, 112}, 96, 96, 3, 2},
      {"dw5x5 240x28^2", {1, 240, 28, 28}, 240, 240, 5, 1},
      {"3x3 F3 C16 56^2", {1, 16, 56, 56}, 3, 1, 3, 1},
      {"dw3x3x3 32x8x28^2", {1, 32, 8, 28, 28}, 32, 32, 3, 1},
      {"1-D k3 64x1024", {1, 64, 1024}, 64, 1, 3, 1},
  };
  const Case &C = Cases[State.range(0)];
  size_t Sp = C.X.size() - 2;
  std::vector<int64_t> WDims = {C.F, C.X[1] / C.Group};
  WDims.insert(WDims.end(), Sp, C.Kernel);
  Rng R(13);
  Tensor X{Shape(C.X)}, W{Shape(WDims)}, Bias(Shape({C.F}));
  fillRandom(X, R);
  fillRandom(W, R);
  fillRandom(Bias, R);
  AttrMap A;
  A.set("group", C.Group)
      .set("strides", std::vector<int64_t>(Sp, C.Stride))
      .set("pads", std::vector<int64_t>(Sp, C.Kernel / 2));
  Tensor Out(inferShape(OpKind::Conv, A, {X.shape(), W.shape()}));
  KernelConfig Config;
  Config.UsePackedGemm = false;
  State.SetLabel(C.Name);
  for (auto _ : State) {
    runRefKernel(OpKind::Conv, A, {&X, &W, &Bias}, Out, Config);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * 2 * Out.numElements() *
                          (W.numElements() / C.F));
}
BENCHMARK(BM_ConvDirect)->DenseRange(0, 5);

// MaxPool (mode 0) and AveragePool (mode 1), 3-wide windows at stride 2
// with pad 1, over 64x112^2 (2-D) and 64x16x56^2 (3-D).
void BM_Pool(benchmark::State &State) {
  bool ThreeD = State.range(1) != 0;
  std::vector<int64_t> Dims = ThreeD ? std::vector<int64_t>{1, 64, 16, 56, 56}
                                     : std::vector<int64_t>{1, 64, 112, 112};
  size_t Sp = Dims.size() - 2;
  Rng R(17);
  Tensor X{Shape(Dims)};
  fillRandom(X, R);
  AttrMap A;
  A.set("kernel", std::vector<int64_t>(Sp, 3))
      .set("strides", std::vector<int64_t>(Sp, 2))
      .set("pads", std::vector<int64_t>(Sp, 1));
  OpKind Kind = State.range(0) == 0 ? OpKind::MaxPool : OpKind::AveragePool;
  Tensor Out(inferShape(Kind, A, {X.shape()}));
  State.SetLabel(std::string(opKindName(Kind)) + (ThreeD ? " 3-D" : " 2-D"));
  for (auto _ : State) {
    runRefKernel(Kind, A, {&X}, Out);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * Out.numElements());
}
BENCHMARK(BM_Pool)->ArgsProduct({{0, 1}, {0, 1}});

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
