//===- tests/test_chaos.cpp - Fault-injection chaos harness ----------------------===//
//
// The resilience contract, provoked on purpose: every fault point the
// library compiles in (support/FaultInjection.h) is swept through the
// compile / save / load / serve lifecycle, and every failure must surface
// as a typed Status at the request boundary — never an abort, never a
// deadlock, never a leaked execution context. On top of the sweep this
// file pins the individual degradation mechanisms: retry-with-backoff
// counters, the kernel DegradeToScalar latch, thread-pool inline fallback,
// deadline/cancel checkpoints (abort latency measured against per-block
// timing), and cache verification under concurrent eviction. This file
// runs under TSAN in CI (`ci.sh chaos`).
//
// The process itself is the detector: an abort kills the binary, a
// deadlock hangs it, and either fails the suite.
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include "ops/KernelRegistry.h"
#include "serialize/CompilationCache.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Retry.h"
#include "tensor/TensorUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <unistd.h>

using namespace dnnfusion;

namespace {

/// A tiny two-layer MLP; cheap enough to recompile once per fault point.
Graph mlp(int64_t HiddenDim = 32) {
  GraphBuilder B(77);
  NodeId X = B.input(Shape({4, 16}), "features");
  NodeId H = B.relu(B.linear(X, HiddenDim));
  B.markOutput(B.softmax(B.linear(H, 8), -1));
  return B.take();
}

/// A deep chain of linear layers: many fusion blocks of comparable cost,
/// so deadline/cancel checkpoints (which sit between blocks) are hit
/// mid-model and abort latency is measurable against per-block timing.
Graph deepChain() {
  GraphBuilder B(9);
  NodeId X = B.input(Shape({96, 256}), "x");
  for (int L = 0; L < 12; ++L)
    X = B.relu(B.linear(X, 256));
  B.markOutput(X);
  return B.take();
}

std::vector<Tensor> inputsFor(const ModelSignature &Sig, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Inputs;
  for (const TensorSpec &Spec : Sig.Inputs) {
    Tensor T(Spec.Sh, Spec.Ty);
    fillRandom(T, R, 0.2f, 1.2f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

void expectBitIdentical(const std::vector<Tensor> &A,
                        const std::vector<Tensor> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t O = 0; O < A.size(); ++O) {
    ASSERT_EQ(A[O].shape().toString(), B[O].shape().toString()) << What;
    const float *Pa = A[O].data();
    const float *Pb = B[O].data();
    for (int64_t I = 0; I < A[O].shape().numElements(); ++I)
      ASSERT_EQ(Pa[I], Pb[I]) << What << " output " << O << " element " << I;
  }
}

/// RAII guard: every test leaves the process un-faulted and un-latched no
/// matter how it exits, so chaos tests cannot poison their neighbors.
struct FaultScope {
  FaultScope() {
    FaultInjection::instance().reset();
    resetRetryStatsForTests();
  }
  ~FaultScope() {
    FaultInjection::instance().reset();
    resetKernelDegradeLatchForTests();
    resetRetryStatsForTests();
  }
};

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "chaos_" + std::to_string(getpid()) + "_" +
         Name;
}

//===----------------------------------------------------------------------===//
// FaultInjection mechanics
//===----------------------------------------------------------------------===//

TEST(FaultInjection, DisabledUntilArmedAndResetDisarms) {
  FaultScope Guard;
  EXPECT_FALSE(FaultInjection::enabled());
  EXPECT_FALSE(faultShouldFail(faultpoints::ExecBlock));
  FaultInjection::instance().arm(faultpoints::ExecBlock);
  EXPECT_TRUE(FaultInjection::enabled());
  EXPECT_TRUE(faultShouldFail(faultpoints::ExecBlock));
  FaultInjection::instance().reset();
  EXPECT_FALSE(FaultInjection::enabled());
}

TEST(FaultInjection, BudgetAndSkipShapeTheTriggerStream) {
  FaultScope Guard;
  FaultInjection &FI = FaultInjection::instance();
  FaultSpec Budgeted;
  Budgeted.MaxTriggers = 2;
  FI.arm(faultpoints::FileRead, Budgeted);
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileRead));
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileRead));
  EXPECT_FALSE(FI.shouldFail(faultpoints::FileRead)); // Budget spent.
  FaultPointStats S = FI.pointStats(faultpoints::FileRead);
  EXPECT_EQ(S.Checks, 3);
  EXPECT_EQ(S.Triggers, 2);

  FaultSpec Skipped;
  Skipped.SkipFirst = 2;
  FI.arm(faultpoints::FileWrite, Skipped);
  EXPECT_FALSE(FI.shouldFail(faultpoints::FileWrite));
  EXPECT_FALSE(FI.shouldFail(faultpoints::FileWrite));
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileWrite)); // Past the skip.
  EXPECT_EQ(FI.totalTriggers(), 3);
}

TEST(FaultInjection, SeededProbabilityIsDeterministic) {
  FaultScope Guard;
  FaultInjection &FI = FaultInjection::instance();
  auto Draw = [&](uint64_t Seed) {
    FI.reset(Seed);
    FaultSpec Half;
    Half.Probability = 0.5;
    FI.arm(faultpoints::ExecBlock, Half);
    std::string Stream;
    for (int I = 0; I < 32; ++I)
      Stream += FI.shouldFail(faultpoints::ExecBlock) ? '1' : '0';
    return Stream;
  };
  std::string A = Draw(7), B = Draw(7), C = Draw(8);
  EXPECT_EQ(A, B);                          // Same seed, same stream.
  EXPECT_NE(A, C);                          // Seed actually matters.
  EXPECT_NE(A.find('1'), std::string::npos); // p=0.5 fires sometimes...
  EXPECT_NE(A.find('0'), std::string::npos); // ...and passes sometimes.
}

TEST(FaultInjection, WildcardArmsFamilyAndExactEntryWins) {
  FaultScope Guard;
  FaultInjection &FI = FaultInjection::instance();
  FI.arm("fileio.*");
  FaultSpec Never;
  Never.Probability = 0.0;
  FI.arm(faultpoints::FileRead, Never); // Exact beats wildcard.
  EXPECT_FALSE(FI.shouldFail(faultpoints::FileRead));
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileWrite));
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileRename));
  EXPECT_FALSE(FI.shouldFail(faultpoints::ExecBlock)); // Other family.
  // Stats are per concrete point even when armed by wildcard.
  EXPECT_EQ(FI.pointStats(faultpoints::FileWrite).Triggers, 1);
  EXPECT_EQ(FI.pointStats(faultpoints::FileRename).Triggers, 1);
}

TEST(FaultInjection, SpecStringConfiguresAndRejectsAtomically) {
  FaultScope Guard;
  FaultInjection &FI = FaultInjection::instance();
  ASSERT_TRUE(
      FI.configure("seed=7; fileio.read:p=1,max=2 ; exec.block:p=1,skip=1")
          .ok());
  EXPECT_TRUE(FI.shouldFail(faultpoints::FileRead));
  EXPECT_FALSE(FI.shouldFail(faultpoints::ExecBlock)); // skip=1.
  EXPECT_TRUE(FI.shouldFail(faultpoints::ExecBlock));

  // Malformed specs are InvalidArgument and apply nothing.
  FI.reset();
  EXPECT_EQ(FI.configure("no.such.point:p=1").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(FI.configure("fileio.read:p=1.5").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(FI.configure("fileio.read:p=1;junk").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(FI.configure("seed=notanumber").code(),
            ErrorCode::InvalidArgument);
  EXPECT_FALSE(FaultInjection::enabled()); // Nothing half-applied.
}

//===----------------------------------------------------------------------===//
// Retry with backoff
//===----------------------------------------------------------------------===//

RetryPolicy fastRetry(int Attempts) {
  RetryPolicy P;
  P.MaxAttempts = Attempts;
  P.InitialBackoffMicros = 20;
  P.MaxBackoffMicros = 100;
  return P;
}

TEST(Retry, TransientFailuresRetryUntilSuccess) {
  FaultScope Guard;
  int Calls = 0;
  Status S = retryStatus("test.flaky", fastRetry(5), [&] {
    return ++Calls < 3 ? Status::error(ErrorCode::Internal, "blip")
                       : Status();
  });
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(Calls, 3);
  RetrySiteStats St = retrySiteStats("test.flaky");
  EXPECT_EQ(St.Attempts, 3);
  EXPECT_EQ(St.RetriedThenSucceeded, 1);
  EXPECT_EQ(St.Exhausted, 0);
}

TEST(Retry, BudgetExhaustionReturnsLastErrorAndCounts) {
  FaultScope Guard;
  int Calls = 0;
  Status S = retryStatus("test.outage", fastRetry(3), [&] {
    ++Calls;
    return Status::error(ErrorCode::Internal, "still down");
  });
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Internal);
  EXPECT_EQ(Calls, 3);
  RetrySiteStats St = retrySiteStats("test.outage");
  EXPECT_EQ(St.Exhausted, 1);
  EXPECT_EQ(St.RetriedThenSucceeded, 0);
}

TEST(Retry, NonTransientErrorsNeverRetry) {
  FaultScope Guard;
  for (ErrorCode Code : {ErrorCode::NotFound, ErrorCode::DataLoss,
                         ErrorCode::InvalidArgument,
                         ErrorCode::DeadlineExceeded}) {
    EXPECT_FALSE(isTransient(Code));
    int Calls = 0;
    Status S = retryStatus("test.terminal", fastRetry(4), [&] {
      ++Calls;
      return Status::error(Code, "terminal");
    });
    EXPECT_EQ(S.code(), Code);
    EXPECT_EQ(Calls, 1) << "retried a non-transient " << (int)Code;
  }
  EXPECT_TRUE(isTransient(ErrorCode::Internal));
  EXPECT_TRUE(isTransient(ErrorCode::ResourceExhausted));
}

TEST(Retry, ExpectedVariantDeliversTheValue) {
  FaultScope Guard;
  int Calls = 0;
  Expected<int> V = retryExpected<int>("test.value", fastRetry(4),
                                       [&]() -> Expected<int> {
                                         if (++Calls < 2)
                                           return Status::error(
                                               ErrorCode::Internal, "blip");
                                         return 42;
                                       });
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(V.value(), 42);
  EXPECT_EQ(retrySiteStats("test.value").RetriedThenSucceeded, 1);
}

//===----------------------------------------------------------------------===//
// File I/O faults: persistence fails typed, recovers when the fault clears
//===----------------------------------------------------------------------===//

TEST(ChaosFileIO, SaveLoadFailTypedUnderFaultsAndRecover) {
  FaultScope Guard;
  FaultInjection &FI = FaultInjection::instance();
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::string Path = tempPath("fileio.dnnf");
  std::vector<Tensor> In = inputsFor(M->Signature, 1);

  for (const char *Point :
       {faultpoints::FileWrite, faultpoints::FileRename}) {
    FI.reset();
    FI.arm(Point);
    Status S = saveModel(M.value(), Path);
    ASSERT_FALSE(S.ok()) << Point;
    EXPECT_EQ(S.code(), ErrorCode::Internal) << Point;
    EXPECT_NE(S.message().find("injected"), std::string::npos) << Point;
  }
  FI.reset();
  ASSERT_TRUE(saveModel(M.value(), Path).ok()); // Healthy again.

  FI.arm(faultpoints::FileRead);
  Expected<CompiledModel> Bad = loadModel(Path);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::Internal);
  FI.reset();

  Expected<CompiledModel> Good = loadModel(Path);
  ASSERT_TRUE(Good.ok());
  InferenceSession A(M.takeValue()), B(Good.takeValue());
  Expected<std::vector<Tensor>> Oa = A.run(In), Ob = B.run(In);
  ASSERT_TRUE(Oa.ok() && Ob.ok());
  expectBitIdentical(Oa.value(), Ob.value(), "reload after fault");
}

TEST(ChaosFileIO, CacheRetriesTransientReadThenHits) {
  FaultScope Guard;
  CompileOptions Options;
  Options.CacheDir = tempPath("cache_retry");
  Options.CacheRetry = fastRetry(3);
  // Cold compile populates the cache (no read happens on a cold miss).
  ASSERT_TRUE(compileModel(mlp(), Options).ok());

  // One injected read failure: the lookup's first attempt fails, the
  // retry succeeds, and the compile is still a warm cache hit.
  FaultInjection &FI = FaultInjection::instance();
  FaultSpec Once;
  Once.MaxTriggers = 1;
  FI.arm(faultpoints::FileRead, Once);
  Expected<CompiledModel> Warm = compileModel(mlp(), Options);
  ASSERT_TRUE(Warm.ok());
  EXPECT_TRUE(Warm->CacheHit);
  RetrySiteStats St = retrySiteStats("cache.lookup");
  EXPECT_GE(St.RetriedThenSucceeded, 1);
  EXPECT_EQ(St.Exhausted, 0);
  FI.reset();
}

TEST(ChaosFileIO, CacheOutageDegradesToCleanRecompile) {
  FaultScope Guard;
  CompileOptions Options;
  Options.CacheDir = tempPath("cache_outage");
  Options.CacheRetry = fastRetry(2);
  ASSERT_TRUE(compileModel(mlp(), Options).ok());

  // Persistent read failure: the retry budget exhausts, and the cache
  // contract holds — a cache can make a compile slower, never failed.
  FaultInjection::instance().arm(faultpoints::FileRead);
  Expected<CompiledModel> M = compileModel(mlp(), Options);
  ASSERT_TRUE(M.ok());
  EXPECT_FALSE(M->CacheHit);
  EXPECT_GE(retrySiteStats("cache.lookup").Exhausted, 1);
  FaultInjection::instance().reset();

  // Fault cleared: the entry is intact and hits again.
  Expected<CompiledModel> Back = compileModel(mlp(), Options);
  ASSERT_TRUE(Back.ok());
  EXPECT_TRUE(Back->CacheHit);
}

//===----------------------------------------------------------------------===//
// Kernel dispatch fault: the one-way scalar latch
//===----------------------------------------------------------------------===//

TEST(ChaosKernel, DispatchFaultLatchesScalarWithIdenticalResults) {
  // The fault point sits on the SIMD dispatch path, so the session pins
  // avx2 explicitly: a forced-scalar env hook (CI's forced-dispatch pass)
  // must not route around it.
  if (!(dispatchFeatureMask() & CpuFeatureAvx2))
    GTEST_SKIP() << "host/build has no AVX2 tier to degrade";
  FaultScope Guard;
  resetKernelDegradeLatchForTests();
  CompileOptions Avx2;
  Avx2.Codegen.Kernels.ForceKernelLevel = 1;
  Expected<CompiledModel> M = compileModel(mlp(), Avx2);
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 2);
  InferenceSession Session(M.takeValue());
  Expected<std::vector<Tensor>> Baseline = Session.run(In);
  ASSERT_TRUE(Baseline.ok());
  ASSERT_FALSE(kernelDegradedToScalar());

  FaultInjection::instance().arm(faultpoints::KernelDispatch);
  Expected<std::vector<Tensor>> Degraded = Session.run(In);
  ASSERT_TRUE(Degraded.ok()); // Degradation is invisible to callers...
  expectBitIdentical(Baseline.value(), Degraded.value(), "scalar fallback");
  EXPECT_TRUE(kernelDegradedToScalar()); // ...but observable to operators.
  EXPECT_NE(std::string(kernelDegradeReason()).find("fault"),
            std::string::npos);

  // The latch is one-way: clearing the fault does not un-latch (a kernel
  // tier that faulted once is not trusted back mid-process).
  FaultInjection::instance().reset();
  EXPECT_TRUE(kernelDegradedToScalar());
  Expected<std::vector<Tensor>> StillScalar = Session.run(In);
  ASSERT_TRUE(StillScalar.ok());
  expectBitIdentical(Baseline.value(), StillScalar.value(), "latched");
  resetKernelDegradeLatchForTests();
  EXPECT_FALSE(kernelDegradedToScalar());
}

//===----------------------------------------------------------------------===//
// Thread-pool spawn fault: kernels and runBatch degrade to inline execution
//===----------------------------------------------------------------------===//

TEST(ChaosThreadPool, SpawnFaultDegradesInlineWithIdenticalResults) {
  FaultScope Guard;
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 3);
  InferenceSession Session(M.takeValue());
  Expected<std::vector<Tensor>> Baseline = Session.run(In);
  ASSERT_TRUE(Baseline.ok());

  FaultInjection::instance().arm(faultpoints::ThreadPoolSpawn);
  // Solo runs and a fan-out batch: both paths fall back to the calling
  // thread with no error and no divergence.
  Expected<std::vector<Tensor>> Inline = Session.run(In);
  ASSERT_TRUE(Inline.ok());
  expectBitIdentical(Baseline.value(), Inline.value(), "inline fallback");
  std::vector<Expected<std::vector<Tensor>>> Batch =
      Session.runBatch({In, In, In});
  for (size_t R = 0; R < Batch.size(); ++R) {
    ASSERT_TRUE(Batch[R].ok()) << Batch[R].status().toString();
    expectBitIdentical(Baseline.value(), Batch[R].value(), "batch inline");
  }
  FaultInjection::instance().reset();
}

//===----------------------------------------------------------------------===//
// Execution faults: blocks, arenas, tensors
//===----------------------------------------------------------------------===//

TEST(ChaosExecution, BlockFaultIsTypedAndSessionRecovers) {
  FaultScope Guard;
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 4);
  InferenceSession Session(M.takeValue());

  FaultSpec Once;
  Once.MaxTriggers = 1;
  FaultInjection::instance().arm(faultpoints::ExecBlock, Once);
  Expected<std::vector<Tensor>> Faulted = Session.run(In);
  ASSERT_FALSE(Faulted.ok());
  EXPECT_EQ(Faulted.status().code(), ErrorCode::Internal);
  EXPECT_NE(Faulted.status().message().find("exec.block"),
            std::string::npos);

  // Budget spent: the very next request succeeds on the same session, and
  // the faulted lease went back to the pool.
  Expected<std::vector<Tensor>> Healthy = Session.run(In);
  ASSERT_TRUE(Healthy.ok()) << Healthy.status().toString();
  EXPECT_EQ(Session.idleContexts(), Session.contextsCreated());
  SessionMetrics Metrics = Session.metrics();
  EXPECT_EQ(Metrics.RequestsFailed, 1u);
  EXPECT_EQ(Metrics.RequestsServed, 1u);
}

TEST(ChaosExecution, AllocationFaultsSurfaceAsResourceExhausted) {
  FaultScope Guard;
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 5);
  InferenceSession Session(M.takeValue());

  // Arena allocation fails while growing the context pool: the request
  // boundary converts the bad_alloc to a typed rejection.
  FaultInjection::instance().arm(faultpoints::AllocArena);
  Expected<std::vector<Tensor>> NoArena = Session.run(In);
  ASSERT_FALSE(NoArena.ok());
  EXPECT_EQ(NoArena.status().code(), ErrorCode::ResourceExhausted);
  FaultInjection::instance().reset();

  // Warm the pool, then fail tensor allocation (the output copy): typed
  // again, and the leased context still returns to the pool.
  ASSERT_TRUE(Session.run(In).ok());
  FaultInjection::instance().arm(faultpoints::AllocTensor);
  Expected<std::vector<Tensor>> NoTensor = Session.run(In);
  ASSERT_FALSE(NoTensor.ok());
  EXPECT_EQ(NoTensor.status().code(), ErrorCode::ResourceExhausted);
  FaultInjection::instance().reset();
  EXPECT_EQ(Session.idleContexts(), Session.contextsCreated());
  ASSERT_TRUE(Session.run(In).ok());
}

//===----------------------------------------------------------------------===//
// Deadlines and cancellation: cooperative checkpoints between blocks
//===----------------------------------------------------------------------===//

TEST(ChaosDeadline, ExpiredDeadlineAbortsBeforeExecuting) {
  FaultScope Guard;
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 6);
  InferenceSession Session(M.takeValue());

  RunControl Late;
  Late.Deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  Expected<std::vector<Tensor>> Out = Session.run(In, nullptr, Late);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().code(), ErrorCode::DeadlineExceeded);
  SessionMetrics Metrics = Session.metrics();
  EXPECT_EQ(Metrics.DeadlinesExceededMidRun, 1u);
  EXPECT_EQ(Metrics.RequestsFailed, 1u);
  EXPECT_EQ(Session.idleContexts(), Session.contextsCreated());
  ASSERT_TRUE(Session.run(In).ok()); // No deadline, no problem.
}

TEST(ChaosDeadline, CancelFlagAbortsAtNextCheckpoint) {
  FaultScope Guard;
  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  std::vector<Tensor> In = inputsFor(M->Signature, 7);
  InferenceSession Session(M.takeValue());

  std::atomic<bool> Cancel{true};
  RunControl Control;
  Control.Cancel = &Cancel;
  Expected<std::vector<Tensor>> Out = Session.run(In, nullptr, Control);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().code(), ErrorCode::FailedPrecondition);
  EXPECT_NE(Out.status().message().find("cancelled"), std::string::npos);

  Cancel = false;
  ASSERT_TRUE(Session.run(In, nullptr, Control).ok());
  EXPECT_EQ(Session.idleContexts(), Session.contextsCreated());
}

TEST(ChaosDeadline, MidRunExpiryAbortsWithinOneBlockOfTheDeadline) {
  FaultScope Guard;
  CompileOptions Options;
  Options.EnableFusion = false; // Keep the 12 layers as separate blocks.
  Expected<CompiledModel> M = compileModel(deepChain(), Options);
  ASSERT_TRUE(M.ok());
  ASSERT_GE(M->Blocks.size(), 8u); // Plenty of checkpoints.
  std::vector<Tensor> In = inputsFor(M->Signature, 8);
  ExecutionContext Ctx(M.value());

  using ClockT = std::chrono::steady_clock;
  auto MsBetween = [](ClockT::time_point A, ClockT::time_point B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };

  // Timing assertions retry: one attempt may be blown by scheduler noise,
  // but the typed-status contract must hold on every attempt.
  bool LatencyBounded = false;
  double LastTotal = 0, LastBlockMax = 0, LastAbortLatency = 0;
  for (int Attempt = 0; Attempt < 4 && !LatencyBounded; ++Attempt) {
    // Calibrate on the fastest of three runs: a deadline set from one
    // preempted run can fall after the next run has already finished.
    ExecutionStats Baseline;
    for (int Warm = 0; Warm < 3; ++Warm) {
      ExecutionStats S;
      ASSERT_TRUE(Ctx.tryRun(In, &S, /*PerBlockTiming=*/true).ok());
      if (Warm == 0 || S.WallMs < Baseline.WallMs)
        Baseline = S;
    }
    double TotalMs = Baseline.WallMs;
    double BlockMaxMs = 0;
    for (double B : Baseline.PerBlockMs)
      BlockMaxMs = std::max(BlockMaxMs, B);
    if (TotalMs < 2.0)
      continue; // Too fast to time the abort meaningfully on this machine.

    RunControl Control;
    ClockT::time_point Start = ClockT::now();
    Control.Deadline =
        Start + std::chrono::microseconds(
                    static_cast<int64_t>(TotalMs * 1000.0 / 2));
    Expected<std::vector<Tensor>> Out = Ctx.tryRun(In, nullptr, false,
                                                   Control);
    ClockT::time_point End = ClockT::now();
    ASSERT_FALSE(Out.ok());
    EXPECT_EQ(Out.status().code(), ErrorCode::DeadlineExceeded);
    EXPECT_NE(Out.status().message().find("checkpoint"), std::string::npos);

    // The abort must land at the first checkpoint after expiry: the time
    // past the deadline is bounded by one block's latency (plus margin
    // for scheduler noise), never the rest of the model.
    LastTotal = TotalMs;
    LastBlockMax = BlockMaxMs;
    LastAbortLatency = MsBetween(Start, End) - TotalMs / 2;
    LatencyBounded =
        LastAbortLatency <= std::max(2.0 * BlockMaxMs + 2.0, TotalMs / 4);
  }
  if (LastTotal >= 2.0) {
    EXPECT_TRUE(LatencyBounded)
        << "abort latency " << LastAbortLatency << " ms not bounded by one "
        << "block (max block " << LastBlockMax << " ms of " << LastTotal
        << " ms total)";
  }
  // The aborted context is immediately reusable.
  ASSERT_TRUE(Ctx.tryRun(In).ok());
}

//===----------------------------------------------------------------------===//
// Cache verification vs concurrent eviction
//===----------------------------------------------------------------------===//

TEST(ChaosCacheVerify, ConcurrentEvictionIsNeverReportedAsCorruption) {
  FaultScope Guard;
  CompileOptions Options;
  Options.CacheDir = tempPath("cache_verify");
  for (int64_t Hidden : {8, 12, 16, 20, 24})
    ASSERT_TRUE(compileModel(mlp(Hidden), Options).ok());
  CompilationCache Cache(Options.CacheDir);
  std::vector<CacheEntryInfo> Entries = Cache.entries();
  ASSERT_EQ(Entries.size(), 5u);

  // A healthy directory verifies fully.
  CacheVerifySweep Healthy = Cache.verifyAll();
  EXPECT_EQ(Healthy.Verified, 5);
  EXPECT_EQ(Healthy.SkippedEvicted, 0);
  EXPECT_TRUE(Healthy.Failures.empty());

  // Race verification sweeps against another "process" evicting entries:
  // a vanished entry is SkippedEvicted, never a Failure.
  std::atomic<bool> Done{false};
  std::thread Evictor([&] {
    for (const CacheEntryInfo &E : Entries) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      EXPECT_TRUE(Cache.removeEntry(E.Key).ok());
    }
    Done = true;
  });
  while (!Done) {
    CacheVerifySweep Sweep = Cache.verifyAll();
    EXPECT_TRUE(Sweep.Failures.empty())
        << Sweep.Failures.front().second.toString();
  }
  Evictor.join();
  CacheVerifySweep Empty = Cache.verifyAll();
  EXPECT_EQ(Empty.Verified, 0);
  EXPECT_TRUE(Empty.Failures.empty());

  // A present-but-corrupt entry, by contrast, is a Failure.
  ASSERT_TRUE(compileModel(mlp(8), Options).ok());
  Entries = Cache.entries();
  ASSERT_EQ(Entries.size(), 1u);
  ASSERT_TRUE(writeFileAtomic(Entries[0].Path, "corrupt").ok());
  CacheVerifySweep Corrupt = Cache.verifyAll();
  EXPECT_EQ(Corrupt.Verified, 0);
  ASSERT_EQ(Corrupt.Failures.size(), 1u);
  EXPECT_EQ(Corrupt.Failures[0].second.code(), ErrorCode::DataLoss);
}

//===----------------------------------------------------------------------===//
// The sweep: every fault point through compile / save / load / serve
//===----------------------------------------------------------------------===//

/// Drives one full lifecycle with \p Point armed intermittently. Every
/// call must come back Ok or typed; the process surviving is the main
/// assertion. Returns a diagnostic on contract violation, "" otherwise.
std::string sweepOnePoint(const char *Point, uint64_t Seed) {
  FaultInjection &FI = FaultInjection::instance();
  const bool AllocPoint = std::string(Point).rfind("alloc.", 0) == 0;

  CompileOptions Options;
  Options.CacheDir = tempPath("sweep_cache");
  Options.CacheRetry = fastRetry(2);
  std::string ArtifactPath =
      tempPath(("sweep_" + std::to_string(Seed) + ".dnnf").c_str());

  // Harness material is built un-faulted; the system under test begins at
  // compileModel.
  Graph G = mlp();
  Expected<CompiledModel> Reference = compileModel(mlp());
  if (!Reference.ok())
    return "un-faulted reference compile failed";
  std::vector<Tensor> In = inputsFor(Reference->Signature, Seed);

  FI.reset(Seed);
  FaultSpec Intermittent;
  Intermittent.Probability = 0.5;
  FI.arm(Point, Intermittent);

  std::string Problem;
  try {
    Expected<CompiledModel> M = compileModel(std::move(G), Options);
    if (M.ok()) {
      (void)saveModel(M.value(), ArtifactPath); // Ok or typed.
      (void)loadModel(ArtifactPath);            // Ok or typed.
      InferenceSession Session(M.takeValue());
      for (int R = 0; R < 6; ++R)
        (void)Session.run(In); // Ok or typed; abort kills the detector.
      std::vector<Expected<std::vector<Tensor>>> Batch =
          Session.runBatch({In, In, In, In});
      for (const Expected<std::vector<Tensor>> &Entry : Batch)
        (void)Entry;
      if (Session.idleContexts() != Session.contextsCreated())
        Problem = "leaked execution contexts";
    }
  } catch (const std::bad_alloc &) {
    if (!AllocPoint)
      Problem = "unexpected bad_alloc escaped the request boundary";
  } catch (...) {
    Problem = "unexpected exception escaped";
  }
  FI.reset();
  if (!Problem.empty())
    return Problem;

  // Fault cleared: the same lifecycle must run clean end to end.
  Expected<CompiledModel> Clean = compileModel(mlp(), Options);
  if (!Clean.ok())
    return "clean recompile failed after disarm: " +
           Clean.status().toString();
  if (Status S = saveModel(Clean.value(), ArtifactPath); !S.ok())
    return "clean save failed after disarm: " + S.toString();
  Expected<CompiledModel> Reloaded = loadModel(ArtifactPath);
  if (!Reloaded.ok())
    return "clean reload failed after disarm: " +
           Reloaded.status().toString();
  InferenceSession Session(Reloaded.takeValue());
  Expected<std::vector<Tensor>> Out = Session.run(In);
  if (!Out.ok())
    return "clean serve failed after disarm: " + Out.status().toString();
  return "";
}

TEST(ChaosSweep, EveryFaultPointSurvivesTheFullLifecycle) {
  FaultScope Guard;
  uint64_t Seed = 1000;
  for (const char *Point : knownFaultPoints()) {
    SCOPED_TRACE(Point);
    std::string Problem = sweepOnePoint(Point, Seed++);
    EXPECT_TRUE(Problem.empty()) << Problem;
  }
}

TEST(ChaosSweep, EverythingAtOnceStillNeverAborts) {
  FaultScope Guard;
  // The pathological configuration: every point armed at once, low
  // probability, bounded budget — a machine having a very bad day. The
  // stack must stay typed and recover when the storm passes.
  Graph G = mlp(); // Harness material, built before the storm starts.
  FaultInjection &FI = FaultInjection::instance();
  FI.reset(4242);
  FaultSpec Storm;
  Storm.Probability = 0.2;
  Storm.MaxTriggers = 40;
  FI.arm("*", Storm);

  std::vector<Tensor> In;
  try {
    Expected<CompiledModel> M = compileModel(std::move(G));
    if (M.ok()) {
      In = inputsFor(M->Signature, 99);
      InferenceSession Session(M.takeValue());
      for (int R = 0; R < 10; ++R)
        (void)Session.run(In);
    }
  } catch (const std::bad_alloc &) {
    // Allocation faults in the storm may surface here from compile paths;
    // the request boundary itself never lets them out (covered above).
  }
  FI.reset();

  Expected<CompiledModel> M = compileModel(mlp());
  ASSERT_TRUE(M.ok());
  InferenceSession Session(M.takeValue());
  In = inputsFor(Session.signature(), 99);
  Expected<std::vector<Tensor>> Out = Session.run(In);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
}

} // namespace
