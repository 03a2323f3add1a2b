//===- tests/test_kernel_registry.cpp - Kernel dispatch tests -------------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// CPU-feature kernel dispatch: level resolution against mocked feature
// masks, the typed resolvers' conditions, the DNNFUSION_FORCE_KERNEL_LEVEL
// env hook, scalar-vs-AVX2 differential sweeps over the packed-GEMM shape
// grid (bit-identical by contract), forced-level dispatch through the
// reference kernels, and the cache-hit-then-redispatch property (kernel
// knobs are excluded from the CompilationCache key; a cached artifact
// re-resolves dispatch on the loading host).
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"
#include "ops/KernelRegistry.h"
#include "ops/Kernels.h"
#include "ops/KernelsAttention.h"
#include "ops/KernelsGemmPacked.h"
#include "serialize/CompilationCache.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <unistd.h>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

constexpr uint32_t MaskNone = 0;
constexpr uint32_t MaskAvx2 = CpuFeatureAvx2;

/// True when this build + host can actually execute the AVX2 tiers (the
/// differential tests degrade to scalar-vs-scalar otherwise, which is
/// still a valid — if trivial — run of the same code path).
bool hostRunsAvx2() {
  return simdKernelsCompiledIn() && (dispatchFeatureMask() & CpuFeatureAvx2);
}

//===----------------------------------------------------------------------===//
// Level resolution against mocked feature masks
//===----------------------------------------------------------------------===//

TEST(KernelLevelResolution, AutoPicksAvx2WhereSupported) {
  EXPECT_EQ(resolveKernelLevel(ForceKernelAuto, MaskNone),
            KernelLevel::Scalar);
  EXPECT_EQ(resolveKernelLevel(ForceKernelAuto, MaskAvx2), KernelLevel::Avx2);
  // Dispatch reads only the AVX2 bit; FMA alone runs nothing wider.
  EXPECT_EQ(resolveKernelLevel(ForceKernelAuto, CpuFeatureFma),
            KernelLevel::Scalar);
  EXPECT_EQ(resolveKernelLevel(ForceKernelAuto, MaskAvx2 | CpuFeatureFma),
            KernelLevel::Avx2);
}

TEST(KernelLevelResolution, ForcedLevelsClampDownNeverUp) {
  // Forced scalar always honored.
  EXPECT_EQ(resolveKernelLevel(0, MaskNone), KernelLevel::Scalar);
  EXPECT_EQ(resolveKernelLevel(0, MaskAvx2), KernelLevel::Scalar);
  // Forced avx2 on a host without it runs scalar instead of faulting.
  EXPECT_EQ(resolveKernelLevel(1, MaskNone), KernelLevel::Scalar);
  EXPECT_EQ(resolveKernelLevel(1, MaskAvx2), KernelLevel::Avx2);
  // Out-of-range forces: above the top tier clamps to it, below -1 is auto.
  EXPECT_EQ(resolveKernelLevel(2, MaskAvx2), KernelLevel::Avx2);
  EXPECT_EQ(resolveKernelLevel(7, MaskNone), KernelLevel::Scalar);
  EXPECT_EQ(resolveKernelLevel(-5, MaskAvx2), KernelLevel::Avx2);
}

TEST(KernelLevelResolution, NamesRoundTrip) {
  EXPECT_STREQ(kernelLevelName(KernelLevel::Scalar), "scalar");
  EXPECT_STREQ(kernelLevelName(KernelLevel::Avx2), "avx2");
  for (KernelLevel L : {KernelLevel::Scalar, KernelLevel::Avx2})
    EXPECT_EQ(parseKernelLevel(kernelLevelName(L)), static_cast<int>(L));
  EXPECT_EQ(parseKernelLevel("auto"), ForceKernelAuto);
  EXPECT_EQ(parseKernelLevel(""), ForceKernelAuto);
  EXPECT_EQ(parseKernelLevel(nullptr), ForceKernelAuto);
  EXPECT_EQ(parseKernelLevel("avx512"), ForceKernelAuto);
}

TEST(KernelLevelResolution, DispatchMaskReflectsBuild) {
  if (!simdKernelsCompiledIn()) {
    // Without the AVX2 translation units nothing but scalar can run,
    // whatever the silicon says.
    EXPECT_EQ(dispatchFeatureMask(), MaskNone);
  } else {
    // The dispatch mask never invents features the probe did not report.
    EXPECT_EQ(dispatchFeatureMask() & ~detectCpuFeatures(), MaskNone);
  }
}

//===----------------------------------------------------------------------===//
// Typed resolvers
//===----------------------------------------------------------------------===//

TEST(KernelDispatch, ResolversReturnAvx2KernelsOnlyWhenEveryConditionHolds) {
  // Scalar level resolves no SIMD kernel, on any host.
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Scalar, 16), nullptr);
  EXPECT_EQ(resolveFusedAttentionRows(KernelLevel::Scalar), nullptr);
  EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Scalar), nullptr);
  if (!hostRunsAvx2()) {
    // No AVX2 in the dispatch mask: even a requested avx2 resolves null.
    EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2, 16), nullptr);
    EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Avx2), nullptr);
    GTEST_SKIP() << "host/build has no AVX2 tier";
  }
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2, 16),
            simd::gemmPackedRowsAvx2());
  EXPECT_EQ(resolveFusedAttentionRows(KernelLevel::Avx2),
            simd::fusedAttentionRowsAvx2());
  EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Avx2), simd::eltwiseChunkAvx2());
  // Narrow panels stay on the scalar micro tile.
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2, 8),
            simd::gemmPackedRowsAvx2());
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2, 4), nullptr);
  // A tripped degrade latch closes every resolver.
  latchKernelDegradeToScalar("test");
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2, 16), nullptr);
  EXPECT_EQ(resolveFusedAttentionRows(KernelLevel::Avx2), nullptr);
  EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Avx2), nullptr);
  resetKernelDegradeLatchForTests();
}

//===----------------------------------------------------------------------===//
// Env hook and config precedence
//===----------------------------------------------------------------------===//

class ForcedLevelEnv : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Old = getenv("DNNFUSION_FORCE_KERNEL_LEVEL");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
  }
  void TearDown() override {
    if (HadOld)
      setenv("DNNFUSION_FORCE_KERNEL_LEVEL", OldValue.c_str(), 1);
    else
      unsetenv("DNNFUSION_FORCE_KERNEL_LEVEL");
    refreshForcedKernelLevelFromEnv();
  }
  void force(const char *Value) {
    setenv("DNNFUSION_FORCE_KERNEL_LEVEL", Value, 1);
    refreshForcedKernelLevelFromEnv();
  }
  bool HadOld = false;
  std::string OldValue;
};

TEST_F(ForcedLevelEnv, EnvForcesTierForDefaultConfigs) {
  force("scalar");
  KernelConfig Default;
  EXPECT_EQ(effectiveKernelLevel(Default), KernelLevel::Scalar);

  force("avx2");
  EXPECT_EQ(effectiveKernelLevel(Default),
            hostRunsAvx2() ? KernelLevel::Avx2 : KernelLevel::Scalar);

  force("auto");
  EXPECT_EQ(effectiveKernelLevel(Default),
            hostRunsAvx2() ? KernelLevel::Avx2 : KernelLevel::Scalar);
}

TEST_F(ForcedLevelEnv, ExplicitConfigBeatsEnv) {
  force("avx2");
  KernelConfig C;
  C.ForceKernelLevel = 0;
  EXPECT_EQ(effectiveKernelLevel(C), KernelLevel::Scalar);

  force("scalar");
  C.ForceKernelLevel = 1;
  EXPECT_EQ(effectiveKernelLevel(C),
            hostRunsAvx2() ? KernelLevel::Avx2 : KernelLevel::Scalar);
}

TEST_F(ForcedLevelEnv, GarbageEnvFallsBackToAuto) {
  force("pentium-mmx");
  KernelConfig Default;
  EXPECT_EQ(effectiveKernelLevel(Default),
            hostRunsAvx2() ? KernelLevel::Avx2 : KernelLevel::Scalar);
}

//===----------------------------------------------------------------------===//
// Scalar-vs-SIMD differential: packed GEMM micro tile
//===----------------------------------------------------------------------===//

/// Runs one packed-GEMM problem at the avx2 level and expects it
/// bit-identical to the scalar reference. \p ATransposed stores A
/// column-major to exercise the strided A-operand path (the Gemm transA
/// layout).
void gemmDifferentialCase(int64_t M, int64_t N, int64_t K, int MR, int NR,
                          bool WithBias, bool ATransposed, uint64_t Seed) {
  SCOPED_TRACE(formatString("M=%lld N=%lld K=%lld MR=%d NR=%d bias=%d tA=%d",
                            static_cast<long long>(M),
                            static_cast<long long>(N),
                            static_cast<long long>(K), MR, NR, WithBias,
                            ATransposed));
  Rng R(Seed);
  Tensor A(Shape({ATransposed ? K : M, ATransposed ? M : K}));
  Tensor B(Shape({K, N}));
  fillRandom(A, R, -1.0f, 1.0f);
  fillRandom(B, R, -1.0f, 1.0f);
  std::vector<float> Bias(static_cast<size_t>(M));
  for (float &V : Bias)
    V = R.nextFloatInRange(-0.5f, 0.5f);

  NR = clampPackNR(NR);
  std::vector<float> Packed(
      static_cast<size_t>(packedPanelElems(K, N, NR)));
  packBPanels(B.data(), N, 1, K, N, NR, Packed.data());

  int64_t ARow = ATransposed ? 1 : K;
  int64_t ACol = ATransposed ? M : 1;
  const float *RowBias = WithBias ? Bias.data() : nullptr;

  std::vector<float> Ref(static_cast<size_t>(M * N));
  gemmPackedRowsScalar(A.data(), ARow, ACol, Packed.data(), Ref.data(), N, 0,
                       M, N, K, MR, NR, RowBias);

  // The bit-exact tier through the public dispatcher (falls back to the
  // scalar micro tile when the host/build lacks AVX2 or NR is narrow —
  // trivially identical, still a valid run of the dispatch path).
  std::vector<float> Simd(static_cast<size_t>(M * N), -42.0f);
  gemmPackedRows(A.data(), ARow, ACol, Packed.data(), Simd.data(), N, 0, M, N,
                 K, MR, NR, RowBias, KernelLevel::Avx2);
  for (int64_t I = 0; I < M * N; ++I)
    ASSERT_EQ(Ref[static_cast<size_t>(I)], Simd[static_cast<size_t>(I)])
        << "avx2 diverged at element " << I;
}

TEST(GemmPackedDifferential, ShapeGridScalarVsSimd) {
  uint64_t Seed = 0xd15ba7c4;
  // Odd M/N/K so every row-block and panel tail path runs; MR below,
  // at, and above the SIMD kernel's internal 4-row blocking; every
  // supported panel width (NR=4 exercises the narrow-panel fallback).
  for (int MR : {1, 3, 8})
    for (int NR : {4, 8, 16, 32})
      for (bool WithBias : {false, true})
        for (bool ATransposed : {false, true})
          gemmDifferentialCase(13, 37, 19, MR, NR, WithBias, ATransposed,
                               ++Seed);
  // A large square case where all full-tile fast paths dominate.
  gemmDifferentialCase(64, 64, 64, 8, 16, true, false, ++Seed);
  // Single-column and single-row degenerate geometries.
  gemmDifferentialCase(1, 32, 24, 8, 8, false, false, ++Seed);
  gemmDifferentialCase(16, 8, 1, 4, 8, true, false, ++Seed);
}

//===----------------------------------------------------------------------===//
// Scalar-vs-SIMD differential: fused attention rows
//===----------------------------------------------------------------------===//

TEST(FusedAttentionDifferential, RowsBitIdenticalAcrossTiers) {
  FusedAttentionRowsFn Simd = simd::fusedAttentionRowsAvx2();
  if (!Simd)
    GTEST_SKIP() << "build has no AVX2 attention kernel";

  // S crosses the KeyTile boundary (tile rescale points must line up);
  // Dh is deliberately not a multiple of 8 (vector tails).
  const int64_t Batches = 2, S = FusedAttentionKeyTile + 7, Dh = 24;
  Rng R(0xa77e);
  Tensor Q(Shape({Batches, S, Dh})), Kt(Shape({Batches, Dh, S})),
      V(Shape({Batches, S, Dh})), Mask(Shape({Batches, S, S}));
  fillRandom(Q, R, -1.0f, 1.0f);
  fillRandom(Kt, R, -1.0f, 1.0f);
  fillRandom(V, R, -1.0f, 1.0f);
  fillRandom(Mask, R, -0.5f, 0.0f);

  for (bool Causal : {false, true})
    for (bool WithMask : {false, true}) {
      if (Causal && WithMask)
        continue; // The scalar kernel ignores the mask under causal.
      SCOPED_TRACE(formatString("causal=%d mask=%d", Causal, WithMask));
      AttentionRowArgs Ar;
      Ar.Q = Q.data();
      Ar.Kt = Kt.data();
      Ar.V = V.data();
      Ar.Mask = WithMask ? Mask.data() : nullptr;
      Ar.MaskBatchStride = S * S;
      Ar.Scale = 0.125f;
      Ar.Causal = Causal;
      Ar.S = S;
      Ar.Dh = Dh;

      std::vector<float> RefOut(static_cast<size_t>(Batches * S * Dh));
      std::vector<float> SimdOut(static_cast<size_t>(Batches * S * Dh),
                                 -42.0f);
      Ar.Out = RefOut.data();
      fusedAttentionRowsScalar(Ar, 0, Batches * S);
      Ar.Out = SimdOut.data();
      Simd(Ar, 0, Batches * S);
      for (size_t I = 0; I < RefOut.size(); ++I)
        ASSERT_EQ(RefOut[I], SimdOut[I]) << "element " << I;
    }
}

//===----------------------------------------------------------------------===//
// Scalar-vs-SIMD differential: eltwise tape ops
//===----------------------------------------------------------------------===//

TEST(EltwiseChunkDifferential, CoveredOpsBitIdenticalIncludingEdgeValues) {
  EltwiseChunkFn Simd = simd::eltwiseChunkAvx2();
  if (!Simd)
    GTEST_SKIP() << "build has no AVX2 eltwise kernel";

  // 67 elements: eight full vectors plus a 3-wide scalar tail. The edge
  // slots carry the values where naive SIMD translations break: signed
  // zeros (Neg/Min/Max), NaN (cmp+blend ordering), infinities, and
  // denormals.
  const int64_t Count = 67;
  Rng R(0xe17);
  std::vector<float> X(Count), Y(Count);
  for (int64_t I = 0; I < Count; ++I) {
    X[static_cast<size_t>(I)] = R.nextFloatInRange(-2.0f, 2.0f);
    Y[static_cast<size_t>(I)] = R.nextFloatInRange(-2.0f, 2.0f);
  }
  X[0] = 0.0f;
  X[1] = -0.0f;
  Y[1] = 0.0f;
  X[2] = std::numeric_limits<float>::quiet_NaN();
  Y[3] = std::numeric_limits<float>::quiet_NaN();
  X[4] = std::numeric_limits<float>::infinity();
  Y[5] = -std::numeric_limits<float>::infinity();
  X[6] = std::numeric_limits<float>::denorm_min();

  struct Case {
    OpKind Op;
    int Arity;
    float ParamA;
  };
  const Case Cases[] = {
      {OpKind::Add, 2, 0.0f},        {OpKind::Sub, 2, 0.0f},
      {OpKind::Mul, 2, 0.0f},        {OpKind::Div, 2, 0.0f},
      {OpKind::Maximum, 2, 0.0f},    {OpKind::Minimum, 2, 0.0f},
      {OpKind::Relu, 1, 0.0f},       {OpKind::LeakyRelu, 1, 0.1f},
      {OpKind::Square, 1, 0.0f},     {OpKind::Reciprocal, 1, 0.0f},
      {OpKind::Neg, 1, 0.0f},        {OpKind::Identity, 1, 0.0f},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(opKindName(C.Op));
    ScalarParams P;
    P.A = C.ParamA;
    const float *Args[2] = {X.data(), Y.data()};
    std::vector<float> Ref(Count), Got(Count, -42.0f);
    evalElementwiseChunk(C.Op, P, Args, C.Arity, Ref.data(), Count);
    ASSERT_TRUE(Simd(C.Op, P, Args, C.Arity, Got.data(), Count));
    // Bitwise comparison: NaN payloads and signed zeros must match too.
    for (int64_t I = 0; I < Count; ++I) {
      uint32_t RefBits, GotBits;
      std::memcpy(&RefBits, &Ref[static_cast<size_t>(I)], 4);
      std::memcpy(&GotBits, &Got[static_cast<size_t>(I)], 4);
      ASSERT_EQ(RefBits, GotBits)
          << "element " << I << ": scalar " << Ref[static_cast<size_t>(I)]
          << " vs simd " << Got[static_cast<size_t>(I)];
    }
  }

  // Uncovered ops decline (caller falls back to the scalar chunk loop).
  ScalarParams P;
  const float *Args[1] = {X.data()};
  std::vector<float> Out(Count);
  EXPECT_FALSE(Simd(OpKind::Sqrt, P, Args, 1, Out.data(), Count));
}

//===----------------------------------------------------------------------===//
// Forced-level dispatch through the reference kernels
//===----------------------------------------------------------------------===//

Tensor randomTensor(const Shape &Sh, Rng &R, float Lo = -1.0f,
                    float Hi = 1.0f) {
  Tensor T(Sh);
  fillRandom(T, R, Lo, Hi);
  return T;
}

/// Runs \p Kind at every forced tier and checks the tier contract:
/// scalar == avx2 bit-for-bit, and the per-tier dispatch counters record
/// what actually ran.
void refKernelForcedSweep(OpKind Kind, const AttrMap &Attrs,
                          const std::vector<const Tensor *> &Inputs,
                          const Shape &OutShape) {
  SCOPED_TRACE(opKindName(Kind));
  auto RunAt = [&](int Force, EngineCounters *Counters) {
    Tensor Out(OutShape);
    KernelConfig Config;
    Config.ForceKernelLevel = Force;
    KernelRuntime Rt;
    Rt.Counters = Counters;
    runRefKernel(Kind, Attrs, Inputs, Out, Config, Rt);
    return Out;
  };

  EngineCounters ScalarCtrs, SimdCtrs;
  Tensor RefOut = RunAt(0, &ScalarCtrs);
  Tensor SimdOut = RunAt(1, &SimdCtrs);
  Tensor AutoOut = RunAt(ForceKernelAuto, nullptr);

  ASSERT_EQ(maxAbsDiff(RefOut, SimdOut), 0.0f) << "scalar vs avx2";
  ASSERT_EQ(maxAbsDiff(RefOut, AutoOut), 0.0f) << "scalar vs auto";

  // Audit trail: the forced-scalar run took only scalar dispatches; the
  // forced-SIMD run took avx2 exactly when the host supports it.
  EXPECT_GT(ScalarCtrs.KernelScalarCalls, 0);
  EXPECT_EQ(ScalarCtrs.KernelAvx2Calls, 0);
  if (hostRunsAvx2()) {
    EXPECT_GT(SimdCtrs.KernelAvx2Calls, 0);
    EXPECT_EQ(SimdCtrs.KernelScalarCalls, 0);
  } else {
    EXPECT_GT(SimdCtrs.KernelScalarCalls, 0);
  }
}

TEST(RefKernelForcedDispatch, MatMulGemmConvAgreeAcrossTiers) {
  Rng R(0xbead);
  {
    // Above the packed-profitability threshold so the dispatched path runs.
    Tensor A = randomTensor(Shape({32, 96}), R);
    Tensor B = randomTensor(Shape({96, 64}), R);
    refKernelForcedSweep(OpKind::MatMul, AttrMap(), {&A, &B},
                         Shape({32, 64}));
  }
  {
    // Gemm with both transposes and a broadcast bias row.
    Tensor A = randomTensor(Shape({96, 32}), R);
    Tensor B = randomTensor(Shape({64, 96}), R);
    Tensor Bias = randomTensor(Shape({1, 64}), R);
    AttrMap Attrs;
    Attrs.set("transA", 1).set("transB", 1);
    refKernelForcedSweep(OpKind::Gemm, Attrs, {&A, &B, &Bias},
                         Shape({32, 64}));
  }
  {
    // Conv meeting the im2col eligibility gate (Fg>=4, K>=8,
    // OutSpatial>=8): 3x3 same-padded over an 8x8 image.
    Tensor X = randomTensor(Shape({1, 8, 8, 8}), R);
    Tensor W = randomTensor(Shape({8, 8, 3, 3}), R, -0.5f, 0.5f);
    Tensor Bias = randomTensor(Shape({8}), R);
    AttrMap Attrs;
    Attrs.set("strides", std::vector<int64_t>{1, 1})
        .set("pads", std::vector<int64_t>{1, 1});
    refKernelForcedSweep(OpKind::Conv, Attrs, {&X, &W, &Bias},
                         Shape({1, 8, 8, 8}));
  }
}

//===----------------------------------------------------------------------===//
// Cache hit then redispatch
//===----------------------------------------------------------------------===//

class CacheRedispatch : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = formatString("/tmp/dnnf_kernel_cache_%d", static_cast<int>(getpid()));
    Clean();
  }
  void TearDown() override { Clean(); }
  void Clean() {
    for (const CacheEntryInfo &E : CompilationCache(Dir).entries())
      removeFileIfExists(E.Path);
    rmdir(Dir.c_str());
  }
  std::string Dir;
};

TEST_F(CacheRedispatch, KernelKnobsExcludedFromKeyAndReResolvedOnLoad) {
  Graph G = buildModel("TinyBERT");

  CompileOptions ForcedScalar;
  ForcedScalar.CacheDir = Dir;
  ForcedScalar.Codegen.Kernels.ForceKernelLevel = 0;
  CompileOptions Default;
  Default.CacheDir = Dir;

  // The dispatch knob must not fragment the cache: both configurations
  // key to the same artifact.
  ASSERT_EQ(CompilationCache::fingerprint(G, ForcedScalar),
            CompilationCache::fingerprint(G, Default));

  // Cold store under forced-scalar...
  CompiledModel Cold =
      cantFail(compileModel(buildModel("TinyBERT"), ForcedScalar));
  ASSERT_FALSE(Cold.CacheHit);
  // ...then a default-config load must hit and adopt the caller's knobs,
  // not resurrect the stored host's forced tier.
  CompiledModel Warm = cantFail(compileModel(buildModel("TinyBERT"), Default));
  ASSERT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Codegen.Kernels.ForceKernelLevel, ForceKernelAuto);

  // Blocks are rebuilt on load, so every step's dispatch stamp reflects
  // the *loading* host's resolution (auto), not the storing forced level.
  KernelConfig DefaultKernels;
  int8_t WantLevel = static_cast<int8_t>(effectiveKernelLevel(DefaultKernels));
  int Stamped = 0;
  for (const CompiledBlock &B : Warm.Blocks)
    for (const CompiledStep &S : B.Steps)
      if (S.K != CompiledStep::Kind::FusedLayerNorm) {
        EXPECT_EQ(S.DispatchLevel, WantLevel);
        ++Stamped;
      }
  EXPECT_GT(Stamped, 0);
  // The cold model was compiled under forced-scalar and stamps that.
  for (const CompiledBlock &B : Cold.Blocks)
    for (const CompiledStep &S : B.Steps)
      if (S.K != CompiledStep::Kind::FusedLayerNorm) {
        EXPECT_EQ(S.DispatchLevel, 0);
      }

  // And the redispatched artifact executes bit-identically to the forced
  // run (the Avx2 tier's core contract).
  std::vector<Tensor> Inputs = randomInputs(G, 97);
  ExecutionContext ECold(Cold), EWarm(Warm);
  std::vector<Tensor> WantOut = ECold.run(Inputs);
  std::vector<Tensor> GotOut = EWarm.run(Inputs);
  std::optional<std::string> Diff =
      compareOutputs(WantOut, GotOut, 0.0f, 0.0f);
  EXPECT_FALSE(Diff.has_value()) << *Diff;
}

} // namespace
