//===- runtime/ExecutionContext.h - Model execution -----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable half of the split execution layer. A CompiledModel is an
/// immutable program; an ExecutionContext holds everything one in-flight
/// run mutates — the tensor arena, one scratch buffer, one packing buffer,
/// and the instrumentation counters every experiment consumes (kernel
/// launches, FLOPs, main-memory traffic, peak footprint, wall time). One
/// model can therefore serve N contexts concurrently (see
/// InferenceSession).
///
/// run() executes the model's fusion blocks one after another on the
/// calling thread, in plan order — the order the memory plan's liveness
/// assumes. Parallelism lives inside the blocks: each kernel slices its
/// output across the global ThreadPool with deterministic slice
/// boundaries, writing disjoint ranges of the block's buffers, so outputs
/// and counters do not depend on the pool size.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H
#define DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H

#include "runtime/ModelCompiler.h"
#include "support/Status.h"
#include "tensor/Tensor.h"

#include <atomic>
#include <chrono>
#include <vector>

namespace dnnfusion {

/// Counters from one model execution.
struct ExecutionStats {
  int64_t KernelLaunches = 0;
  int64_t Flops = 0;
  /// Main-arena traffic: block external reads / output writes.
  int64_t MainBytesRead = 0;
  int64_t MainBytesWritten = 0;
  /// Block-local scratch traffic (stays cache-resident on hardware).
  int64_t ScratchBytes = 0;
  int64_t PeakArenaBytes = 0;
  double WallMs = 0.0;
  /// Execution-engine path counters (program steps, packed vs naive
  /// kernels, prepack hits/misses), identical across pool sizes.
  EngineCounters Engine;
  /// Wall time per block, indexed by block (filled when PerBlockTiming is
  /// requested); one entry for every block of the model.
  std::vector<double> PerBlockMs;
};

/// Accepted and ignored by ExecutionContext, which has one schedule. Kept
/// only for perfbench, its one user, which still names
/// Schedule::Sequential.
struct ExecutionOptions {
  enum class Schedule {
    /// Blocks run one after another on the calling thread, in plan order.
    Sequential,
  };
  Schedule Mode = Schedule::Sequential;
};

/// Cooperative cancellation for one run. Execution checkpoints before
/// every fusion block, so an abort takes effect within one block's
/// latency, not the whole model's — the property that lets the serving
/// layer stop burning compute on a request whose deadline already passed.
struct RunControl {
  /// Abort with DeadlineExceeded once steady_clock passes this (max() =
  /// no deadline). Same clock as AdmissionController deadlines.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  /// External cancel flag polled at every checkpoint; abort with
  /// FailedPrecondition("cancelled") once it reads true. Null = never.
  const std::atomic<bool> *Cancel = nullptr;

  /// True when any checkpointing is needed (false skips the per-block
  /// clock reads entirely — the common case costs nothing).
  bool active() const {
    return Cancel != nullptr ||
           Deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// All mutable state for executing one CompiledModel. Reusable across runs
/// (buffers persist — including after an aborted run; every run rewrites
/// what it reads), reentrant with respect to the thread pool (run() may
/// itself be called from a pool worker, whose kernels then run inline),
/// but NOT safe for two simultaneous run() calls on the same context — use
/// one context per in-flight request (InferenceSession pools them).
class ExecutionContext {
public:
  /// \p Options is accepted and ignored (see ExecutionOptions).
  explicit ExecutionContext(const CompiledModel &Model,
                            const ExecutionOptions &Options = {});

  /// Runs the model on \p Inputs (one tensor per graph input, in
  /// InputIds order). Returns the graph outputs in graph-output order, or:
  ///  - DeadlineExceeded / FailedPrecondition when \p Control aborted the
  ///    run at a block checkpoint;
  ///  - ResourceExhausted when output allocation threw bad_alloc;
  ///  - Internal when a block faulted (the exec.block injection today).
  /// On any error the context is immediately reusable.
  Expected<std::vector<Tensor>> tryRun(const std::vector<Tensor> &Inputs,
                                       ExecutionStats *Stats = nullptr,
                                       bool PerBlockTiming = false,
                                       const RunControl &Control = {});

  /// tryRun for call sites where failure is a library bug (benches, tests
  /// on known-good models with no deadline): aborts on error.
  std::vector<Tensor> run(const std::vector<Tensor> &Inputs,
                          ExecutionStats *Stats = nullptr,
                          bool PerBlockTiming = false);

  const CompiledModel &model() const { return M; }

private:
  /// Executes block \p BI, recording its wall time into \p PerBlockMs and
  /// its engine counters into \p Counters when non-null. Returns the
  /// injected exec.block fault, if any, without running the block.
  Status runBlock(size_t BI, const std::vector<Tensor> &Inputs,
                  std::vector<double> *PerBlockMs, EngineCounters *Counters);
  const float *valuePtr(NodeId Id, const std::vector<Tensor> &Inputs) const;

  const CompiledModel &M;
  std::vector<float> Arena;
  /// Block-local intermediates (MemoryPlan::ScratchBytes): one block runs
  /// at a time, so one buffer serves every block.
  std::vector<float> Scratch;
  /// Packed-GEMM packing buffer (MemoryPlan::PackScratchBytes): run-time B
  /// panels and im2col tiles of the one kernel running at a time.
  AlignedFloats Pack;
};

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H
