//===- tests/test_kernel_registry.cpp - Kernel dispatch tests -------------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
// CPU-feature kernel dispatch: level resolution against mocked feature
// masks, the typed resolvers' conditions, the DNNFUSION_FORCE_KERNEL_LEVEL
// env hook, scalar-vs-AVX2 differential sweeps over the packed-GEMM shape
// grid (bit-identical by contract), forced-level dispatch through the
// reference kernels, the narrow-N (N <= 8) routes against the naive
// kernels at both tiers, the narrow-rows tile's row ranges, and the
// cache-hit-then-redispatch property (kernel knobs are excluded from the
// CompilationCache key; a cached artifact re-resolves dispatch on the
// loading host and rebuilds its prepacks under the caller's
// UsePackedGemm).
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"
#include "ops/KernelRegistry.h"
#include "ops/Kernels.h"
#include "ops/KernelsAttention.h"
#include "ops/KernelsGemmPacked.h"
#include "serialize/CompilationCache.h"
#include "support/Error.h"
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
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Scalar), nullptr);
  EXPECT_EQ(resolveGemmNarrowRows(KernelLevel::Scalar), nullptr);
  EXPECT_EQ(resolveFusedAttentionRows(KernelLevel::Scalar), nullptr);
  EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Scalar), nullptr);
  if (!hostRunsAvx2()) {
    // No AVX2 in the dispatch mask: even a requested avx2 resolves null.
    EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2), nullptr);
    EXPECT_EQ(resolveGemmNarrowRows(KernelLevel::Avx2), nullptr);
    EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Avx2), nullptr);
    GTEST_SKIP() << "host/build has no AVX2 tier";
  }
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2),
            simd::gemmPackedRowsAvx2());
  EXPECT_EQ(resolveGemmNarrowRows(KernelLevel::Avx2),
            simd::gemmNarrowRowsAvx2());
  EXPECT_EQ(resolveFusedAttentionRows(KernelLevel::Avx2),
            simd::fusedAttentionRowsAvx2());
  EXPECT_EQ(resolveEltwiseChunk(KernelLevel::Avx2), simd::eltwiseChunkAvx2());
  // A tripped degrade latch closes every resolver.
  latchKernelDegradeToScalar("test");
  EXPECT_EQ(resolveGemmPackedRows(KernelLevel::Avx2), nullptr);
  EXPECT_EQ(resolveGemmNarrowRows(KernelLevel::Avx2), nullptr);
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
void gemmDifferentialCase(int64_t M, int64_t N, int64_t K, int NR,
                          bool WithBias, bool ATransposed, uint64_t Seed) {
  SCOPED_TRACE(formatString("M=%lld N=%lld K=%lld NR=%d bias=%d tA=%d",
                            static_cast<long long>(M),
                            static_cast<long long>(N),
                            static_cast<long long>(K), NR, WithBias,
                            ATransposed));
  Rng R(Seed);
  Tensor A(Shape({ATransposed ? K : M, ATransposed ? M : K}));
  Tensor B(Shape({K, N}));
  fillRandom(A, R, -1.0f, 1.0f);
  fillRandom(B, R, -1.0f, 1.0f);
  std::vector<float> Bias(static_cast<size_t>(M));
  for (float &V : Bias)
    V = R.nextFloatInRange(-0.5f, 0.5f);

  std::vector<float> Packed(
      static_cast<size_t>(packedPanelElems(K, N, NR)));
  packBPanels(B.data(), N, 1, K, N, NR, Packed.data());

  int64_t ARow = ATransposed ? 1 : K;
  int64_t ACol = ATransposed ? M : 1;
  const float *RowBias = WithBias ? Bias.data() : nullptr;

  std::vector<float> Ref(static_cast<size_t>(M * N));
  gemmPackedRowsScalar(A.data(), ARow, ACol, Packed.data(), Ref.data(), N, 0,
                       M, N, K, NR, RowBias);

  // The bit-exact tier through the public dispatcher (falls back to the
  // scalar micro tile when the host/build lacks AVX2 — trivially
  // identical, still a valid run of the dispatch path).
  std::vector<float> Simd(static_cast<size_t>(M * N), -42.0f);
  gemmPackedRows(A.data(), ARow, ACol, Packed.data(), Simd.data(), N, 0, M, N,
                 K, NR, RowBias, KernelLevel::Avx2);
  for (int64_t I = 0; I < M * N; ++I)
    ASSERT_EQ(Ref[static_cast<size_t>(I)], Simd[static_cast<size_t>(I)])
        << "avx2 diverged at element " << I;
}

TEST(GemmPackedDifferential, ShapeGridScalarVsSimd) {
  uint64_t Seed = 0xd15ba7c4;
  // Odd M/N/K so every row-block and panel tail path runs at both panel
  // widths: M = 1 and 3 fit inside one 4-row block of the AVX2 wide tile,
  // M = 13 is three full blocks and a tail (one 8-row block and a tail
  // on the narrow and scalar tiles).
  for (int64_t M : {1, 3, 13})
    for (int NR : {GemmNarrowNR, GemmWideNR})
      for (bool WithBias : {false, true})
        for (bool ATransposed : {false, true})
          gemmDifferentialCase(M, 37, 19, NR, WithBias, ATransposed, ++Seed);
  // A large square case where all full-tile fast paths dominate.
  gemmDifferentialCase(64, 64, 64, GemmWideNR, true, false, ++Seed);
  // Single-column and single-row degenerate geometries.
  gemmDifferentialCase(1, 32, 24, GemmNarrowNR, false, false, ++Seed);
  gemmDifferentialCase(16, 8, 1, GemmNarrowNR, true, false, ++Seed);
  // The narrow panel route's 8x8 tile: N = 1..8 in one 8-wide panel, and
  // M = 8q + r so every row tail r of the 8-row blocking runs, alone
  // (q = 0) and behind full blocks.
  for (int64_t N = 1; N <= 8; ++N)
    for (int64_t Q : {0, 1, 3})
      for (int64_t Rem = 0; Rem < 8; ++Rem) {
        if (8 * Q + Rem == 0)
          continue;
        for (bool WithBias : {false, true})
          for (bool ATransposed : {false, true})
            gemmDifferentialCase(8 * Q + Rem, N, 19, GemmNarrowNR, WithBias,
                                 ATransposed, ++Seed);
      }
}

TEST(GemmPackedDifferential, TilesRejectPanelWidthsOtherThanTheTwo) {
  // Panels pack only at GemmNarrowNR and GemmWideNR; any other width is a
  // routing bug, reported before a single store.
  std::vector<std::pair<const char *, GemmPackedRowsFn>> Tiles{
      {"scalar", &gemmPackedRowsScalar}};
  if (GemmPackedRowsFn Avx2 = resolveGemmPackedRows(KernelLevel::Avx2))
    Tiles.push_back({"avx2", Avx2});
  const int64_t M = 8, N = 16, K = 4;
  std::vector<float> A(static_cast<size_t>(M * K), 1.0f);
  std::vector<float> Packed(static_cast<size_t>(packedPanelElems(K, N, 16)),
                            1.0f);
  for (auto [TierName, Tile] : Tiles)
    for (int NR : {4, 16}) {
      SCOPED_TRACE(formatString("%s NR=%d", TierName, NR));
      std::vector<float> C(static_cast<size_t>(M * N), -7.0f);
      ScopedFatalErrorTrap Trap;
      EXPECT_THROW(Tile(A.data(), K, 1, Packed.data(), C.data(), N, 0, M, N,
                        K, NR, nullptr),
                   detail::TrappedFatalError);
      for (float V : C)
        ASSERT_EQ(V, -7.0f);
    }
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
// Narrow-N routes: packed vs naive through the reference kernels
//===----------------------------------------------------------------------===//

/// Runs \p Kind through runRefKernel with the packed engine off (the naive
/// oracle) and on at each tier, expects every output bitwise equal to the
/// naive one, and expects each packed run to have taken the route \p Want.
/// \p Prepack, when set, serves B the way a compiled model serves a
/// constant weight; only the Panel route reads it.
void expectNarrowRoute(OpKind Kind, const AttrMap &Attrs,
                       const std::vector<const Tensor *> &Inputs,
                       const Shape &OutShape, GemmRoute::Kind Want,
                       const PackedOperand *Prepack = nullptr) {
  KernelConfig Naive;
  Naive.UsePackedGemm = false;
  Tensor Expected(OutShape);
  runRefKernel(Kind, Attrs, Inputs, Expected, Naive);
  for (KernelLevel Level : {KernelLevel::Scalar, KernelLevel::Avx2}) {
    SCOPED_TRACE(kernelLevelName(Level));
    KernelConfig Config;
    Config.ForceKernelLevel = static_cast<int>(Level);
    Tensor Got(OutShape);
    EngineCounters Ctrs;
    KernelRuntime Rt;
    Rt.Prepacked = Prepack;
    Rt.Counters = &Ctrs;
    runRefKernel(Kind, Attrs, Inputs, Got, Config, Rt);
    ASSERT_EQ(std::memcmp(Expected.data(), Got.data(),
                          static_cast<size_t>(Expected.numElements()) *
                              sizeof(float)),
              0)
        << opKindName(Kind) << ": packed diverged from naive";
    bool Packed = Want != GemmRoute::Naive;
    EXPECT_EQ(Ctrs.PackedKernelCalls, Packed ? 1 : 0) << opKindName(Kind);
    EXPECT_EQ(Ctrs.DirectKernelCalls, Packed ? 0 : 1) << opKindName(Kind);
    EXPECT_EQ(Ctrs.KernelScalarCalls + Ctrs.KernelAvx2Calls, Packed ? 1 : 0);
    // Only the panel route packs, so only it records a prepack hit/miss.
    EXPECT_EQ(Ctrs.PrepackHits + Ctrs.PrepackMisses,
              Want == GemmRoute::Panel ? 1 : 0);
    if (Prepack && Want == GemmRoute::Panel) {
      EXPECT_EQ(Ctrs.PrepackHits, 1);
    }
  }
}

TEST(NarrowGemmRoute, PackedMatchesNaiveOverNarrowGrid) {
  // Every 1 <= N <= 8 problem with M >= 4 rows per B and K >= 2 takes a
  // packed route: the narrow-rows tile for N <= 4 with contiguous A rows,
  // the 8-wide panel otherwise. The rest stay naive, N = 0 (an empty
  // output) included. Either way the bytes match the naive kernels at
  // both tiers. K covers the tile's 8-k steps with and without a k tail,
  // M its 8-row blocks with and without a row tail.
  Rng R(0x9a77);
  for (int64_t N = 0; N <= 8; ++N)
    for (int64_t M : {1, 3, 4, 5, 7, 8, 9, 17, 1024})
      for (int64_t K : {1, 2, 7, 8, 9, 256, 1000}) {
        if ((N < 1 || N > GemmNarrowRowsMaxN) &&
            (K == 8 || K == 9 || K == 1000))
          continue; // The panel's grid: K steps one at a time.
        SCOPED_TRACE(formatString("M=%lld N=%lld K=%lld",
                                  static_cast<long long>(M),
                                  static_cast<long long>(N),
                                  static_cast<long long>(K)));
        auto Routed = [K, N](int64_t RowsPerB, bool TransA) {
          if (RowsPerB < 4 || K < 2 || N < 1)
            return GemmRoute::Naive;
          return N <= GemmNarrowRowsMaxN && !TransA ? GemmRoute::NarrowRows
                                                    : GemmRoute::Panel;
        };
        Tensor W = randomTensor(Shape({M, K}), R);
        Tensor X = randomTensor(Shape({K, N}), R);
        // Weight-stationary W[M,K] x X[K,N]: X packs at run time on the
        // panel route and is read in place on the narrow-rows route.
        expectNarrowRoute(OpKind::MatMul, AttrMap(), {&W, &X}, Shape({M, N}),
                          Routed(M, false));
        // Activation x weight: the [K,N] weight comes prepacked, which the
        // narrow-rows route ignores.
        PackedOperand P;
        P.K = K;
        P.N = N;
        P.NR = GemmNarrowNR;
        P.Data.resize(static_cast<size_t>(P.sliceElems()));
        packBPanels(X.data(), N, 1, K, N, GemmNarrowNR, P.Data.data());
        expectNarrowRoute(OpKind::MatMul, AttrMap(), {&W, &X}, Shape({M, N}),
                          Routed(M, false), &P);
        // Batched (one B slice per batch) and broadcast MatMul: the
        // weight over a batch of activations, and a batch of activations
        // over one shared B (2M rows reuse it).
        Tensor W2 = randomTensor(Shape({2, M, K}), R);
        Tensor X2 = randomTensor(Shape({2, K, N}), R);
        expectNarrowRoute(OpKind::MatMul, AttrMap(), {&W2, &X2},
                          Shape({2, M, N}), Routed(M, false));
        expectNarrowRoute(OpKind::MatMul, AttrMap(), {&W, &X2},
                          Shape({2, M, N}), Routed(M, false));
        expectNarrowRoute(OpKind::MatMul, AttrMap(), {&W2, &X},
                          Shape({2, M, N}), Routed(2 * M, false));
        // Gemm: every transA/transB, and no bias, scalar, row [N],
        // column [M,1] and full [M,N] bias.
        for (int TA : {0, 1})
          for (int TB : {0, 1}) {
            Tensor A = randomTensor(TA ? Shape({K, M}) : Shape({M, K}), R);
            Tensor B = randomTensor(TB ? Shape({N, K}) : Shape({K, N}), R);
            AttrMap Attrs;
            Attrs.set("transA", TA).set("transB", TB);
            const Shape BiasShapes[] = {Shape({int64_t(1)}), Shape({N}),
                                        Shape({M, int64_t(1)}),
                                        Shape({M, N})};
            for (int BiasKind = -1; BiasKind < 4; ++BiasKind) {
              SCOPED_TRACE(formatString("Gemm tA=%d tB=%d bias kind %d", TA,
                                        TB, BiasKind));
              std::vector<const Tensor *> Inputs{&A, &B};
              Tensor Bias;
              if (BiasKind >= 0) {
                Bias = randomTensor(BiasShapes[BiasKind], R);
                Inputs.push_back(&Bias);
              }
              expectNarrowRoute(OpKind::Gemm, Attrs, Inputs, Shape({M, N}),
                                Routed(M, TA != 0));
            }
          }
      }
}

TEST(NarrowGemmRoute, TileWritesExactlyItsRowRange) {
  // Pool slices run the tile on disjoint row ranges at once, so it must
  // write every row of its range and nothing else, whatever the range's
  // offset into the 8-row blocking. Ranges start and end mid-block, and
  // B is read through both layouts (MatMul's [K,N], Gemm transB's [N,K]).
  // Both tiers' tiles: the scalar one always, the AVX2 one where it runs.
  std::vector<std::pair<const char *, GemmNarrowRowsFn>> Tiles{
      {"scalar", &gemmNarrowRowsScalar}};
  if (GemmNarrowRowsFn Avx2 = resolveGemmNarrowRows(KernelLevel::Avx2))
    Tiles.push_back({"avx2", Avx2});
  Rng R(0x7113);
  const int64_t M = 45, K = 19;
  for (int64_t N = 1; N <= GemmNarrowRowsMaxN; ++N)
    for (int TB : {0, 1}) {
      Tensor A = randomTensor(Shape({M, K}), R);
      Tensor B = randomTensor(TB ? Shape({N, K}) : Shape({K, N}), R);
      AttrMap Attrs;
      Attrs.set("transB", TB);
      KernelConfig Naive;
      Naive.UsePackedGemm = false;
      Tensor Expected(Shape({M, N}));
      runRefKernel(OpKind::Gemm, Attrs, {&A, &B}, Expected, Naive);
      for (auto [Begin, End] : {std::pair<int64_t, int64_t>{0, 45},
                                {3, 4},
                                {5, 21},
                                {8, 16},
                                {13, 45}})
        for (auto [TierName, Tile] : Tiles) {
          SCOPED_TRACE(formatString("%s N=%lld tB=%d rows [%lld, %lld)",
                                    TierName, static_cast<long long>(N), TB,
                                    static_cast<long long>(Begin),
                                    static_cast<long long>(End)));
          const float Sentinel = -7.0f;
          std::vector<float> C(static_cast<size_t>(M * N), Sentinel);
          Tile(A.data(), B.data(), TB ? 1 : N, TB ? K : 1, C.data(), Begin,
               End, N, K);
          for (int64_t I = 0; I < M; ++I)
            for (int64_t J = 0; J < N; ++J) {
              float Got = C[static_cast<size_t>(I * N + J)];
              if (I < Begin || I >= End)
                ASSERT_EQ(Got, Sentinel) << "wrote row " << I;
              else
                ASSERT_EQ(std::memcmp(&Got, &Expected.data()[I * N + J],
                                      sizeof(float)),
                          0)
                    << "row " << I << " column " << J;
            }
        }
    }
}

TEST(NarrowGemmRoute, TilesRejectColumnCountsOutsideTheRoute) {
  // gemmRoute sends only 1 <= N <= GemmNarrowRowsMaxN to the tiles; any
  // other N is a routing bug, reported before a single store.
  std::vector<std::pair<const char *, GemmNarrowRowsFn>> Tiles{
      {"scalar", &gemmNarrowRowsScalar}};
  if (GemmNarrowRowsFn Avx2 = resolveGemmNarrowRows(KernelLevel::Avx2))
    Tiles.push_back({"avx2", Avx2});
  const int64_t M = 16, K = 8;
  std::vector<float> A(static_cast<size_t>(M * K), 1.0f);
  std::vector<float> B(static_cast<size_t>(K * 8), 1.0f);
  for (auto [TierName, Tile] : Tiles)
    for (int64_t N : {int64_t(0), GemmNarrowRowsMaxN + int64_t(1)}) {
      SCOPED_TRACE(formatString("%s N=%lld", TierName,
                                static_cast<long long>(N)));
      std::vector<float> C(static_cast<size_t>(M * 8), -7.0f);
      ScopedFatalErrorTrap Trap;
      EXPECT_THROW(Tile(A.data(), B.data(), 8, 1, C.data(), 0, M, N, K),
                   detail::TrappedFatalError);
      for (float V : C)
        ASSERT_EQ(V, -7.0f);
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

TEST_F(CacheRedispatch, PackedEngineSwitchOnAHitMatchesAColdCompile) {
  // The loader builds prepacks and pack scratch under the default
  // UsePackedGemm; a hit under the other value must rebuild both. Either
  // way round, the hit must equal a cold compile under the hit's options.
  std::vector<Tensor> Inputs = randomInputs(buildModel("TinyBERT"), 41);
  for (bool StorePacked : {true, false}) {
    SCOPED_TRACE(StorePacked ? "stored packed, hit naive"
                             : "stored naive, hit packed");
    Clean();
    CompileOptions Store, Hit, Cold;
    Store.CacheDir = Hit.CacheDir = Dir;
    Store.Codegen.Kernels.UsePackedGemm = StorePacked;
    Hit.Codegen.Kernels.UsePackedGemm = !StorePacked;
    Cold.Codegen.Kernels.UsePackedGemm = !StorePacked;
    ASSERT_FALSE(
        cantFail(compileModel(buildModel("TinyBERT"), Store)).CacheHit);
    CompiledModel Warm = cantFail(compileModel(buildModel("TinyBERT"), Hit));
    ASSERT_TRUE(Warm.CacheHit);
    CompiledModel Want = cantFail(compileModel(buildModel("TinyBERT"), Cold));
    EXPECT_EQ(Want.Prepack.empty(), StorePacked);

    ASSERT_EQ(Warm.Prepack.size(), Want.Prepack.size());
    for (size_t I = 0; I < Want.Prepack.size(); ++I) {
      const PackedOperand &Got = Warm.Prepack[I], &Exp = Want.Prepack[I];
      EXPECT_TRUE(Got.matches(Exp.K, Exp.N, Exp.NR, Exp.Slices))
          << "prepack " << I;
      ASSERT_EQ(Got.Data.size(), Exp.Data.size()) << "prepack " << I;
      EXPECT_EQ(std::memcmp(Got.Data.data(), Exp.Data.data(),
                            Exp.Data.size() * sizeof(float)),
                0)
          << "prepack " << I;
    }
    EXPECT_EQ(Warm.Memory.PackScratchBytes, Want.Memory.PackScratchBytes);

    ExecutionContext EWarm(Warm), EWant(Want);
    ExecutionStats WarmStats, WantStats;
    std::vector<Tensor> GotOut = EWarm.run(Inputs, &WarmStats);
    std::vector<Tensor> WantOut = EWant.run(Inputs, &WantStats);
    std::optional<std::string> Diff =
        compareOutputs(WantOut, GotOut, 0.0f, 0.0f);
    EXPECT_FALSE(Diff.has_value()) << *Diff;
    EXPECT_EQ(WarmStats.Engine.PrepackHits, WantStats.Engine.PrepackHits);
    EXPECT_EQ(WarmStats.Engine.PrepackMisses, WantStats.Engine.PrepackMisses);
    EXPECT_EQ(WarmStats.Engine.PackedKernelCalls,
              WantStats.Engine.PackedKernelCalls);
  }
}

} // namespace
