//===- support/ThreadPool.h - Data-parallel helper --------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent thread pool with two entry points:
///
///  - parallelFor: deterministic data-parallel slicing of one iteration
///    space. Slice boundaries depend only on Count and the pool size, so
///    results (and instrumentation counters) do not depend on scheduling.
///  - forEach: coarse task dispatch (one task per index), used by
///    InferenceSession::runBatch to run a batch's requests side by side.
///
/// Both are reentrancy-safe: when called from one of the pool's own worker
/// threads they execute inline on that thread instead of enqueueing, so
/// nested parallelism (a fused kernel's parallelFor inside a runBatch
/// request task) can never deadlock the pool. Both are also safe to call
/// from several independent master threads at once — every call waits on
/// its own task group, which is what lets N InferenceSession clients share
/// one pool.
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

/// A fixed-size pool of worker threads executing parallelFor slices and
/// forEach tasks.
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

  /// Runs \p Body(Begin, End) on disjoint slices covering [0, Count).
  /// Deterministic: slice boundaries depend only on Count and the pool
  /// size. Blocks until all slices finish. Calls Body inline when Count is
  /// small, the pool has a single worker, or the caller is already one of
  /// this pool's workers (reentrant case).
  void parallelFor(int64_t Count,
                   const std::function<void(int64_t, int64_t)> &Body);

  /// Runs \p Body(Index) once for every index in [0, Count), one task per
  /// index, distributed across the workers; the calling thread
  /// participates. Blocks until every task finishes. Called from one of
  /// this pool's own workers it degrades to an inline loop in index order —
  /// the reentrancy guarantee InferenceSession::runBatch relies on.
  void forEach(int64_t Count, const std::function<void(int64_t)> &Body);

  /// Process-wide pool, created on first use.
  static ThreadPool &global();

private:
  /// Completion tracking for one parallelFor/forEach call. Lives on the
  /// caller's stack; Remaining is guarded by the pool mutex.
  struct TaskGroup {
    const std::function<void(int64_t, int64_t)> *Range = nullptr;
    const std::function<void(int64_t)> *Single = nullptr;
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
                 const std::function<void(int64_t, int64_t)> &Body);

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_THREADPOOL_H
