//===- support/ThreadPool.cpp - Data-parallel helper -----------------------===//

#include "support/ThreadPool.h"

#include "support/FaultInjection.h"

#include <algorithm>

using namespace dnnfusion;

namespace {

/// Pool the calling thread works for (null on non-worker threads). The
/// reentrancy checks compare against `this`, so nesting across distinct
/// pools still dispatches normally.
thread_local const ThreadPool *CurrentWorkerPool = nullptr;

} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0) {
    unsigned Hw = std::thread::hardware_concurrency();
    NumThreads = std::min(Hw == 0 ? 1u : Hw, 8u);
  }
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

bool ThreadPool::onWorkerThread() const { return CurrentWorkerPool == this; }

void ThreadPool::runTask(const Task &T) { (*T.Group->Range)(T.Begin, T.End); }

void ThreadPool::workerLoop() {
  CurrentWorkerPool = this;
  while (true) {
    Task T;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock,
                       [this] { return ShuttingDown || !PendingTasks.empty(); });
      if (PendingTasks.empty())
        return; // ShuttingDown and drained.
      T = PendingTasks.back();
      PendingTasks.pop_back();
    }
    runTask(T);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--T.Group->Remaining == 0)
        T.Group->Done.notify_all();
    }
  }
}

void ThreadPool::helpUntilDone(std::unique_lock<std::mutex> &Lock,
                               TaskGroup &Group) {
  // Execute queued tasks of this group on the calling thread instead of
  // idling; tasks of unrelated concurrent groups are left to their owners.
  while (Group.Remaining > 0) {
    auto It = std::find_if(PendingTasks.begin(), PendingTasks.end(),
                           [&](const Task &T) { return T.Group == &Group; });
    if (It == PendingTasks.end()) {
      Group.Done.wait(Lock, [&] { return Group.Remaining == 0; });
      return;
    }
    Task T = *It;
    PendingTasks.erase(It);
    Lock.unlock();
    runTask(T);
    Lock.lock();
    if (--Group.Remaining == 0)
      return;
  }
}

void ThreadPool::parallelFor(
    int64_t Count, const std::function<void(int64_t, int64_t)> &Body,
    int64_t Grain) {
  if (Count <= 0)
    return;
  // Loops under two grains of work are not worth the synchronization
  // overhead; calls from one of our own workers must not block on the
  // queue (deadlock).
  Grain = std::max<int64_t>(Grain, 1);
  unsigned Slices = numThreads();
  // threadpool.spawn degrades to inline execution on the calling thread —
  // correct (same slicing semantics), just serial. No error surfaces; this
  // is the pool's graceful-degradation path.
  if (Slices <= 1 || Count < 2 * Grain || onWorkerThread() ||
      faultShouldFail(faultpoints::ThreadPoolSpawn)) {
    Body(0, Count);
    return;
  }
  Slices = static_cast<unsigned>(
      std::min<int64_t>(Slices, (Count + Grain - 1) / Grain));
  int64_t Chunk = (Count + Slices - 1) / Slices;
  TaskGroup Group;
  Group.Range = &Body;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (unsigned I = 0; I < Slices; ++I) {
    int64_t Begin = static_cast<int64_t>(I) * Chunk;
    int64_t End = std::min<int64_t>(Begin + Chunk, Count);
    if (Begin >= End)
      break;
    PendingTasks.push_back(Task{&Group, Begin, End});
    ++Group.Remaining;
  }
  WakeWorkers.notify_all();
  helpUntilDone(Lock, Group);
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

void dnnfusion::parallelFor(
    int64_t Count, const std::function<void(int64_t, int64_t)> &Body,
    int64_t Grain) {
  ThreadPool::global().parallelFor(Count, Body, Grain);
}
