//===- ops/KernelRegistry.h - CPU-feature kernel dispatch ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CPU-feature kernel dispatch. Three kernel families have a SIMD
/// implementation next to their portable one — the packed-GEMM micro tile,
/// the fused-attention row worker, and the eltwise tape instruction — and
/// two tiers exist:
///
///  - `scalar` — the portable C++ kernels, the bit-exact reference every
///    other tier must agree with.
///  - `avx2` — explicit 8-wide AVX2 intrinsic kernels. They multiply and
///    add in *separate* rounding steps in the same per-element k-order as
///    the scalar kernels (the AVX2 translation units are built with
///    -mavx2 -ffp-contract=off and no FMA), so the tier is bit-identical to
///    scalar. This is the default on AVX2 hosts.
///
/// Each family has exactly one SIMD implementation, so dispatch is direct:
/// a typed resolver returns the AVX2 function or null (= run the scalar
/// path). The level is resolved once per CompiledStep at compileBlock time
/// (the audit stamp CodeEmitter prints) and re-resolved from the live
/// KernelConfig on every executeBlock, so like every other engine knob it
/// can flip per execution without recompiling. The resolution order:
///
///   1. KernelConfig::ForceKernelLevel when >= 0;
///   2. else the DNNFUSION_FORCE_KERNEL_LEVEL env hook
///      (scalar | avx2 | auto; anything else means auto);
///   3. else auto: avx2 when the host supports it.
///
/// A forced avx2 the host cannot execute runs scalar instead of faulting,
/// so any host can run the whole test matrix.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELREGISTRY_H
#define DNNFUSION_OPS_KERNELREGISTRY_H

#include "ops/Scalars.h"

#include <cstdint>

namespace dnnfusion {

struct KernelConfig;
struct EngineCounters;

/// Dispatch tiers. Both are bit-identical; Scalar is the reference.
enum class KernelLevel : int8_t {
  Scalar = 0,
  Avx2 = 1,
};

/// KernelConfig::ForceKernelLevel value meaning "resolve automatically".
inline constexpr int ForceKernelAuto = -1;

/// CPU feature bits (cpuid-derived on x86-64; empty elsewhere). Dispatch
/// checks only CpuFeatureAvx2; the FMA bit is probed for reporting.
enum : uint32_t {
  CpuFeatureAvx2 = 1u << 0,
  CpuFeatureFma = 1u << 1,
};

/// Signature of a packed-GEMM row kernel — identical to gemmPackedRows
/// minus the dispatch level. MR/NR are the scalar tile's blocking knobs;
/// the AVX2 tile re-blocks internally (results are per-element k-order
/// invariant under output-tile shape).
using GemmPackedRowsFn = void (*)(const float *A, int64_t ARowStride,
                                  int64_t AColStride, const float *Packed,
                                  float *C, int64_t CRowStride,
                                  int64_t RowBegin, int64_t RowEnd, int64_t N,
                                  int64_t K, int MR, int NR,
                                  const float *RowBias);

/// One fused-attention problem; rows are flat over Batches * S query rows.
struct AttentionRowArgs {
  const float *Q = nullptr;
  const float *Kt = nullptr;
  const float *V = nullptr;
  const float *Mask = nullptr;
  int64_t MaskBatchStride = 0;
  float Scale = 1.0f;
  bool Causal = false;
  float *Out = nullptr;
  int64_t S = 0;
  int64_t Dh = 0;
};

/// Processes query rows [RowBegin, RowEnd) of one attention problem.
using FusedAttentionRowsFn = void (*)(const AttentionRowArgs &Args,
                                      int64_t RowBegin, int64_t RowEnd);

/// Evaluates one eltwise tape op over a chunk; returns false when the
/// implementation does not cover \p Kind (caller falls back to the scalar
/// evalElementwiseChunk).
using EltwiseChunkFn = bool (*)(OpKind Kind, const ScalarParams &P,
                                const float *const *Args, int NumArgs,
                                float *Out, int64_t Count);

/// Raw host CPU features (cached cpuid / __builtin_cpu_supports probe).
uint32_t detectCpuFeatures();

/// True when this build contains the AVX2 translation units (x86-64
/// toolchain with -mavx2 support); false means only scalar kernels exist.
bool simdKernelsCompiledIn();

/// detectCpuFeatures() masked by what this build can actually execute —
/// the mask every dispatch resolution uses.
uint32_t dispatchFeatureMask();

/// Resolves a forced level (ForceKernelAuto = auto) against a feature
/// mask: 0 is scalar; auto and any positive level are avx2 when \p Features
/// has AVX2, else scalar.
KernelLevel resolveKernelLevel(int ForceLevel, uint32_t Features);

/// The level \p Config dispatches at on this host: explicit
/// ForceKernelLevel first, then the DNNFUSION_FORCE_KERNEL_LEVEL env hook,
/// then auto — resolved against dispatchFeatureMask().
KernelLevel effectiveKernelLevel(const KernelConfig &Config);

/// Lower-case tier name ("scalar", "avx2").
const char *kernelLevelName(KernelLevel L);

/// Parses a tier name (or "auto"); ForceKernelAuto for auto/unknown/empty.
int parseKernelLevel(const char *Name);

/// Re-reads DNNFUSION_FORCE_KERNEL_LEVEL (cached on first use) — test hook.
void refreshForcedKernelLevelFromEnv();

/// True once the process has latched DegradeToScalar: a SIMD dispatch
/// fault (the kernel.dispatch fault point today; a real cpuid/sigill probe
/// failure tomorrow) permanently clamps every subsequent dispatch
/// resolution to the scalar tier. One-way by design — a dispatch tier that
/// faulted once cannot be trusted for the next million requests, and
/// scalar is bit-identical to the default avx2 tier so the degradation is
/// invisible to results, only to throughput. Serving keeps answering.
bool kernelDegradedToScalar();

/// Trips the latch (idempotent; first caller's \p Reason wins).
void latchKernelDegradeToScalar(const char *Reason);

/// Why the latch tripped ("" when it has not).
const char *kernelDegradeReason();

/// Clears the latch — tests only; production never un-degrades.
void resetKernelDegradeLatchForTests();

/// Bumps the per-tier dispatch counter for one dispatched kernel
/// invocation (null-safe).
void countKernelDispatch(EngineCounters *Counters, KernelLevel L);

/// Typed resolvers the kernels call: the AVX2 implementation when \p L is
/// Avx2, the dispatch mask has AVX2 and the degrade latch is open (and,
/// for GEMM, the panel is at least 8 wide); null otherwise, meaning "run
/// the scalar path". Each non-scalar call first evaluates the
/// kernel.dispatch fault point.
GemmPackedRowsFn resolveGemmPackedRows(KernelLevel L, int NR);
FusedAttentionRowsFn resolveFusedAttentionRows(KernelLevel L);
EltwiseChunkFn resolveEltwiseChunk(KernelLevel L);

namespace simd {
/// Defined in the AVX2 translation units (built with
/// -mavx2 -ffp-contract=off on x86-64). Each getter returns null when the
/// build lacks AVX2 codegen, so dispatch degrades to scalar-only without
/// preprocessor conditionals at the call sites.
GemmPackedRowsFn gemmPackedRowsAvx2();
FusedAttentionRowsFn fusedAttentionRowsAvx2();
EltwiseChunkFn eltwiseChunkAvx2();
} // namespace simd

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELREGISTRY_H
