//===- support/FaultInjection.h - Seeded fault injection ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection subsystem: named fault points compiled into the
/// layers that touch the outside world (file I/O, tensor/arena allocation,
/// thread-pool dispatch, per-block execution, kernel dispatch), armed at
/// run time with a per-point probability, trigger budget, and skip count.
/// This is the forcing function behind the chaos harness: every failure
/// path the serving stack claims to handle — transient I/O, OOM, a bad
/// kernel tier, a fault mid-model — can be provoked deterministically
/// instead of waiting for production to do it.
///
/// Contract at every instrumented site:
///
///   if (faultShouldFail(faultpoints::FileRead))
///     return Status::errorf(ErrorCode::Internal, "injected ...");
///
/// Zero cost when disabled: faultShouldFail is one relaxed atomic load
/// until some point is armed. Thread-safe: arming, checking, and counter
/// reads may race freely. Seeded: the trigger stream is a deterministic
/// function of the configured seed, so a chaos failure reproduces.
///
/// Configuration is programmatic (tests) or via the DNNFUSION_FAULT_SPEC
/// environment variable, read once on first use:
///
///   DNNFUSION_FAULT_SPEC="seed=7;fileio.read:p=0.5,max=3;exec.block:p=1"
///
/// Spec grammar (semicolon-separated entries):
///   seed=<u64>                    seeds the trigger stream
///   <point>[:p=<prob>][,max=<n>][,skip=<n>]
/// where <point> is a known fault-point name or a prefix wildcard
/// ("fileio.*"). p defaults to 1, max (trigger budget) to unlimited, skip
/// (checks to pass before the point arms) to 0.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_FAULTINJECTION_H
#define DNNFUSION_SUPPORT_FAULTINJECTION_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dnnfusion {

/// Canonical names of every fault point compiled into the library. The
/// chaos harness sweeps knownFaultPoints(); using these constants at the
/// injection sites keeps the list and the sites from drifting apart.
namespace faultpoints {
/// readFileBytes: transient read failure (ErrorCode::Internal).
inline constexpr const char *FileRead = "fileio.read";
/// writeFileAtomic: transient write failure before the temp file lands.
inline constexpr const char *FileWrite = "fileio.write";
/// writeFileAtomic: the final rename into place fails.
inline constexpr const char *FileRename = "fileio.rename";
/// Tensor storage allocation throws std::bad_alloc (caught at the request
/// boundary and surfaced as ResourceExhausted).
inline constexpr const char *AllocTensor = "alloc.tensor";
/// ExecutionContext construction (arena/scratch sizing) throws
/// std::bad_alloc — the context-pool growth path.
inline constexpr const char *AllocArena = "alloc.arena";
/// ThreadPool parallelFor/forEach cannot spawn onto workers; the pool
/// degrades to inline execution on the calling thread (no error surfaces —
/// this point exercises the degradation, not a failure path). Kernel
/// slicing and InferenceSession::runBatch are the two callers.
inline constexpr const char *ThreadPoolSpawn = "threadpool.spawn";
/// ExecutionContext::runBlock: one fusion block fails mid-model; the run
/// aborts with a typed Internal status before that block executes, and no
/// later block runs.
inline constexpr const char *ExecBlock = "exec.block";
/// Kernel-registry SIMD dispatch fault: trips the one-way DegradeToScalar
/// latch (ops/KernelRegistry.h) and falls back to the scalar tier.
inline constexpr const char *KernelDispatch = "kernel.dispatch";
} // namespace faultpoints

/// Every instrumented fault-point name, for chaos sweeps.
const std::vector<const char *> &knownFaultPoints();

/// How one armed fault point fires.
struct FaultSpec {
  /// Chance each check triggers, in [0, 1].
  double Probability = 1.0;
  /// Total triggers allowed before the point goes quiet; -1 = unlimited.
  /// This is what makes injected faults *transient*: a retry loop or a
  /// breaker re-probe outlives the budget and observes recovery.
  int64_t MaxTriggers = -1;
  /// Checks to let pass before the point starts rolling the dice (reach
  /// deeper call sites: "fail the third read, not the first").
  int64_t SkipFirst = 0;
};

/// Per-point observability counters.
struct FaultPointStats {
  std::string Point;
  int64_t Checks = 0;   ///< faultShouldFail evaluations while armed.
  int64_t Triggers = 0; ///< Checks that injected the fault.
};

/// The process-wide fault-point registry. All methods are thread-safe.
class FaultInjection {
public:
  /// The singleton (reads DNNFUSION_FAULT_SPEC on first construction).
  static FaultInjection &instance();

  /// Lock-free fast gate: false until some point is armed.
  static bool enabled() { return AnyArmed.load(std::memory_order_relaxed); }

  /// Arms \p Point (a known name or prefix wildcard "prefix.*") with
  /// \p Spec, replacing any previous arming of the same pattern.
  void arm(const std::string &Point, const FaultSpec &Spec = {});

  /// Disarms one pattern (no-op when not armed).
  void disarm(const std::string &Point);

  /// Disarms everything and clears all counters; the trigger stream
  /// reseeds from \p Seed.
  void reset(uint64_t Seed = 0x6a09e667f3bcc909ull);

  /// Parses and applies a DNNFUSION_FAULT_SPEC-grammar string (see file
  /// comment). InvalidArgument on malformed input, in which case nothing
  /// was applied.
  Status configure(const std::string &Spec);

  /// The hot-path check: true when \p Point is armed and fires this time.
  /// Call through faultShouldFail() so the disabled case stays one atomic
  /// load.
  bool shouldFail(const char *Point);

  /// Counters for \p Point (zeros when never checked while armed).
  FaultPointStats pointStats(const std::string &Point) const;

  /// Counters for every point checked while armed, name-sorted.
  std::vector<FaultPointStats> statsSnapshot() const;

  /// Total triggers across all points since the last reset.
  int64_t totalTriggers() const;

private:
  FaultInjection();

  struct Armed {
    std::string Pattern; ///< Exact name or "prefix.*".
    FaultSpec Spec;
    int64_t Checks = 0;
    int64_t Triggers = 0;
  };

  Armed *findArmedLocked(const char *Point);
  void refreshEnabledLocked();

  static std::atomic<bool> AnyArmed;

  mutable std::mutex Mutex;
  std::vector<Armed> Points;
  std::vector<FaultPointStats> Stats;
  uint64_t RngState = 0;
  int64_t Total = 0;
};

/// The macro-shaped check every fault site uses. One relaxed atomic load
/// when no fault point is armed (the production configuration).
inline bool faultShouldFail(const char *Point) {
  return FaultInjection::enabled() && FaultInjection::instance().shouldFail(Point);
}

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_FAULTINJECTION_H
