//===- ops/KernelRegistry.cpp - CPU-feature kernel dispatch ---------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ops/KernelRegistry.h"

#include "ops/Kernels.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

namespace dnnfusion {

//===----------------------------------------------------------------------===//
// Feature detection
//===----------------------------------------------------------------------===//

uint32_t detectCpuFeatures() {
  static const uint32_t Cached = [] {
    uint32_t Mask = 0;
#if (defined(__x86_64__) || defined(__i386__)) &&                              \
    (defined(__GNUC__) || defined(__clang__))
    // __builtin_cpu_supports reads cpuid once at startup (libgcc keeps the
    // cache), which covers both the CPU bit and the OS XSAVE/ymm-state
    // enablement that raw cpuid leaf 7 alone would miss.
    if (__builtin_cpu_supports("avx2"))
      Mask |= CpuFeatureAvx2;
    if (__builtin_cpu_supports("fma"))
      Mask |= CpuFeatureFma;
#endif
    return Mask;
  }();
  return Cached;
}

bool simdKernelsCompiledIn() {
  return simd::gemmPackedRowsAvx2() != nullptr;
}

uint32_t dispatchFeatureMask() {
  // A host feature the build cannot emit code for is not dispatchable:
  // when the AVX2 translation units compiled without -mavx2 (non-x86
  // toolchain, or the flag probe failed) every getter is null, so the
  // mask collapses to scalar-only no matter what cpuid says.
  static const uint32_t Cached =
      simdKernelsCompiledIn() ? detectCpuFeatures() : 0u;
  return Cached;
}

//===----------------------------------------------------------------------===//
// Level resolution (pure — mocked-mask tests exercise this directly)
//===----------------------------------------------------------------------===//

KernelLevel resolveKernelLevel(int ForceLevel, uint32_t Features) {
  // Forced scalar is always honored; auto and forced avx2 (any positive
  // level clamps to the top tier) run avx2 only where the features allow,
  // so a forced SIMD level on a scalar-only host degrades instead of
  // faulting.
  if (ForceLevel == static_cast<int>(KernelLevel::Scalar))
    return KernelLevel::Scalar;
  return (Features & CpuFeatureAvx2) ? KernelLevel::Avx2 : KernelLevel::Scalar;
}

const char *kernelLevelName(KernelLevel L) {
  return L == KernelLevel::Avx2 ? "avx2" : "scalar";
}

int parseKernelLevel(const char *Name) {
  if (!Name || !*Name)
    return ForceKernelAuto;
  if (std::strcmp(Name, "scalar") == 0)
    return static_cast<int>(KernelLevel::Scalar);
  if (std::strcmp(Name, "avx2") == 0)
    return static_cast<int>(KernelLevel::Avx2);
  return ForceKernelAuto; // "auto" and anything unrecognized
}

namespace {

int readForcedKernelLevelEnv() {
  return parseKernelLevel(std::getenv("DNNFUSION_FORCE_KERNEL_LEVEL"));
}

int &forcedKernelLevelFromEnv() {
  // Cached once: getenv on every kernel dispatch would put a libc call on
  // the micro-kernel hot path. refreshForcedKernelLevelFromEnv() lets
  // tests flip the variable mid-process.
  static int Cached = readForcedKernelLevelEnv();
  return Cached;
}

} // namespace

void refreshForcedKernelLevelFromEnv() {
  forcedKernelLevelFromEnv() = readForcedKernelLevelEnv();
}

//===----------------------------------------------------------------------===//
// DegradeToScalar latch
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> DegradeLatch{false};
std::mutex DegradeReasonMutex;
std::string &degradeReasonStorage() {
  static std::string Reason;
  return Reason;
}

} // namespace

bool kernelDegradedToScalar() {
  return DegradeLatch.load(std::memory_order_relaxed);
}

void latchKernelDegradeToScalar(const char *Reason) {
  std::lock_guard<std::mutex> Lock(DegradeReasonMutex);
  if (!DegradeLatch.load(std::memory_order_relaxed))
    degradeReasonStorage() = Reason ? Reason : "";
  DegradeLatch.store(true, std::memory_order_relaxed);
}

const char *kernelDegradeReason() {
  std::lock_guard<std::mutex> Lock(DegradeReasonMutex);
  return degradeReasonStorage().c_str();
}

void resetKernelDegradeLatchForTests() {
  std::lock_guard<std::mutex> Lock(DegradeReasonMutex);
  degradeReasonStorage().clear();
  DegradeLatch.store(false, std::memory_order_relaxed);
}

KernelLevel effectiveKernelLevel(const KernelConfig &Config) {
  if (kernelDegradedToScalar())
    return KernelLevel::Scalar;
  int Force = Config.ForceKernelLevel;
  if (Force < 0)
    Force = forcedKernelLevelFromEnv();
  return resolveKernelLevel(Force, dispatchFeatureMask());
}

void countKernelDispatch(EngineCounters *Counters, KernelLevel L) {
  if (!Counters)
    return;
  if (L == KernelLevel::Avx2)
    ++Counters->KernelAvx2Calls;
  else
    ++Counters->KernelScalarCalls;
}

//===----------------------------------------------------------------------===//
// Typed resolvers (the kernels' dispatch points)
//===----------------------------------------------------------------------===//

namespace {

/// The checks every typed resolver shares. A scalar level resolves nothing
/// without touching the fault point; any other level first injects the
/// kernel.dispatch fault (tripping the latch), then needs an open latch
/// and AVX2 in the dispatch mask.
bool simdDispatchable(KernelLevel L) {
  if (L == KernelLevel::Scalar)
    return false;
  if (faultShouldFail(faultpoints::KernelDispatch))
    latchKernelDegradeToScalar("injected fault kernel.dispatch");
  return !kernelDegradedToScalar() &&
         (dispatchFeatureMask() & CpuFeatureAvx2) != 0;
}

} // namespace

GemmPackedRowsFn resolveGemmPackedRows(KernelLevel L) {
  return simdDispatchable(L) ? simd::gemmPackedRowsAvx2() : nullptr;
}

GemmNarrowRowsFn resolveGemmNarrowRows(KernelLevel L) {
  return simdDispatchable(L) ? simd::gemmNarrowRowsAvx2() : nullptr;
}

FusedAttentionRowsFn resolveFusedAttentionRows(KernelLevel L) {
  return simdDispatchable(L) ? simd::fusedAttentionRowsAvx2() : nullptr;
}

EltwiseChunkFn resolveEltwiseChunk(KernelLevel L) {
  return simdDispatchable(L) ? simd::eltwiseChunkAvx2() : nullptr;
}

} // namespace dnnfusion
