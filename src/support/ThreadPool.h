//===- support/ThreadPool.h - Data-parallel helper --------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent thread pool whose one entry point, parallelFor,
/// slices one iteration space deterministically: slice boundaries depend
/// only on Count, the caller's grain and the pool size, so results (and
/// instrumentation counters) do not depend on scheduling. The default
/// grain suits loops whose iteration costs about one element's work; the
/// MatMul/Gemm row loops pass a grain sized by each row's multiply-adds, so
/// a GEMM of a few hundred heavy rows still splits.
///
/// parallelFor is reentrancy-safe: called from one of the pool's own
/// worker threads it executes inline on that thread instead of enqueueing,
/// so a nested parallelFor (a kernel's loop inside another pool task) can
/// never deadlock the pool. It is also safe to call from several
/// independent master threads at once — every call waits on its own task
/// group, which is what lets N InferenceSession clients share one pool.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_THREADPOOL_H
#define DNNFUSION_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dnnfusion {

/// A fixed-size pool of worker threads executing parallelFor slices.
class ThreadPool {
public:
  /// Creates \p NumThreads workers. Zero means one worker per hardware
  /// thread, capped at 8 to mirror the paper's 8-thread mobile CPU setup.
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// True when the calling thread is one of this pool's workers.
  bool onWorkerThread() const;

  /// parallelFor's default grain: iterations per slice for loops whose
  /// body costs about one element's work.
  static constexpr int64_t DefaultGrain = 4096;

  /// Runs \p Body(Begin, End) on disjoint slices covering [0, Count).
  /// \p Grain sets the split: Count < 2 * Grain runs as one inline
  /// Body(0, Count) call, a longer loop as min(numThreads(), ceil(Count /
  /// Grain)) slices of equal size (the last one shorter). Deterministic:
  /// slice boundaries depend only on Count, Grain and the pool size. Blocks until all slices finish. Also calls
  /// Body inline when the pool has a single worker, the caller is already
  /// one of this pool's workers (reentrant case), or the threadpool.spawn
  /// fault point fires.
  void parallelFor(int64_t Count,
                   const std::function<void(int64_t, int64_t)> &Body,
                   int64_t Grain = DefaultGrain);

  /// Process-wide pool, created on first use.
  static ThreadPool &global();

private:
  /// Completion tracking for one parallelFor call. Lives on the caller's
  /// stack; Remaining is guarded by the pool mutex.
  struct TaskGroup {
    const std::function<void(int64_t, int64_t)> *Range = nullptr;
    int64_t Remaining = 0;
    std::condition_variable Done;
  };

  struct Task {
    TaskGroup *Group = nullptr;
    int64_t Begin = 0;
    int64_t End = 0;
  };

  void workerLoop();
  static void runTask(const Task &T);
  /// Pops and runs queued tasks of \p Group until none remain, then waits
  /// for in-flight ones. Called by the master with \p Lock held.
  void helpUntilDone(std::unique_lock<std::mutex> &Lock, TaskGroup &Group);

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::vector<Task> PendingTasks;
  bool ShuttingDown = false;
};

/// Convenience wrapper over ThreadPool::global().parallelFor.
void parallelFor(int64_t Count,
                 const std::function<void(int64_t, int64_t)> &Body,
                 int64_t Grain = ThreadPool::DefaultGrain);

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_THREADPOOL_H
