//===- runtime/ExecutionContext.h - Model execution -----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable half of the split execution layer. A CompiledModel is an
/// immutable program; an ExecutionContext holds everything one in-flight
/// run mutates — the tensor arena, per-lane scratch buffers, and the
/// instrumentation counters every experiment consumes (kernel launches,
/// FLOPs, main-memory traffic, peak footprint, wall time). One model can
/// therefore serve N contexts concurrently (see InferenceSession).
///
/// run() dispatches the model's fusion blocks either strictly sequentially
/// or wavefront-parallel: the compile-time BlockSchedule partitions the
/// blocks into dependency levels, and every block within a level is pushed
/// onto the thread pool as one task. Stats accumulate per block and reduce
/// in block-index order afterwards, so counters are identical across pool
/// sizes and schedules.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H
#define DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H

#include "runtime/ModelCompiler.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "tensor/Tensor.h"

#include <atomic>
#include <chrono>
#include <mutex>
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
  /// Execution-engine path counters (program and epilogue steps, packed vs
  /// naive kernels, prepack hits/misses), reduced in block-index
  /// order so they are identical across schedules and pool sizes.
  EngineCounters Engine;
  /// Wall time per block, indexed by block (filled when PerBlockTiming is
  /// requested). Under wavefront dispatch these overlap in real time.
  std::vector<double> PerBlockMs;
};

/// How an ExecutionContext walks the fusion blocks.
struct ExecutionOptions {
  enum class Schedule {
    /// Blocks run one after another on the calling thread, in plan order.
    Sequential,
    /// Blocks run level-by-level; blocks within a level dispatch across
    /// the thread pool. Bit-identical to Sequential (deterministic
    /// per-element kernel slicing; disjoint arena ranges per level).
    /// Requires a wavefront-safe memory plan — the context falls back to
    /// Sequential when the model was compiled without one.
    Wavefront,
  };
  Schedule Mode = Schedule::Wavefront;
  /// Pool used for wavefront dispatch and per-lane scratch sizing.
  /// nullptr = ThreadPool::global().
  ThreadPool *Pool = nullptr;
};

/// Cooperative cancellation for one run. Execution checkpoints between
/// fusion blocks (sequential) / between wavefront levels (parallel), so an
/// abort takes effect within one block's latency, not the whole model's —
/// the property that lets the serving layer stop burning compute on a
/// request whose deadline already passed.
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
/// itself be called from a pool worker), but NOT safe for two simultaneous
/// run() calls on the same context — use one context per in-flight request
/// (InferenceSession pools them).
class ExecutionContext {
public:
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
  const ExecutionOptions &options() const { return Opts; }
  /// True when run() dispatches wavefronts (mode and memory plan agree).
  bool usesWavefront() const;

private:
  ThreadPool &pool() const;
  /// Records the first abort Status (later calls lose) and raises the
  /// abort flag every checkpoint polls.
  void setAbort(Status S);
  /// Polls \p Control (and any already-recorded abort) at a block/level
  /// boundary; true = stop dispatching blocks.
  bool checkpointShouldStop(const RunControl &Control);
  /// Executes block \p BI with lane-local scratch, recording its wall time
  /// into \p PerBlockMs and its engine counters into \p PerBlockCounters
  /// when non-null.
  void runBlock(size_t BI, unsigned Lane, const std::vector<Tensor> &Inputs,
                std::vector<double> *PerBlockMs,
                std::vector<EngineCounters> *PerBlockCounters);
  const float *valuePtr(NodeId Id, const std::vector<Tensor> &Inputs) const;

  const CompiledModel &M;
  ExecutionOptions Opts;
  std::vector<float> Arena;
  /// One scratch buffer per pool lane (workers + master), so concurrent
  /// blocks never share transient staging space.
  std::vector<std::vector<float>> ScratchLanes;
  /// One packed-GEMM packing buffer per lane (MemoryPlan::PackScratchBytes
  /// each): run-time B panels and im2col tiles.
  std::vector<std::vector<float>> PackLanes;
  /// Per-block engine counters, reused across runs (the context is
  /// exclusive to one in-flight request, so no per-run allocation).
  std::vector<EngineCounters> CounterScratch;
  /// Abort machinery, reset at the top of every tryRun. The flag is
  /// atomic because wavefront workers poll it while the master (or a
  /// faulting sibling block) raises it.
  std::atomic<bool> AbortFlag{false};
  std::mutex AbortMutex;
  Status AbortStatus;
};

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_EXECUTIONCONTEXT_H
