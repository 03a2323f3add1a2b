//===- serving/DynamicBatcher.cpp - Work-conserving request batching ------------===//

#include "serving/DynamicBatcher.h"

#include <algorithm>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace dnnfusion;

namespace {

std::chrono::microseconds micros(int64_t V) {
  return std::chrono::microseconds(V);
}

double elapsedMicros(AdmissionController::Clock::time_point From,
                     AdmissionController::Clock::time_point To) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
                 .count()) /
         1000.0;
}

} // namespace

std::vector<int64_t> DynamicBatcher::bucketLadder(const BatcherOptions &O) {
  std::vector<int64_t> Ladder;
  for (int64_t B : O.BatchSizes)
    if (B >= 1 && B <= O.MaxBatchSize)
      Ladder.push_back(B);
  Ladder.push_back(1); // Solo execution must always be available.
  std::sort(Ladder.begin(), Ladder.end(), std::greater<int64_t>());
  Ladder.erase(std::unique(Ladder.begin(), Ladder.end()), Ladder.end());
  return Ladder;
}

Status DynamicBatcher::checkBatchContract(const ModelSignature &BaseSig,
                                          const ModelSignature &VariantSig,
                                          int64_t B) {
  auto CheckSpecs = [&](const std::vector<TensorSpec> &Lo,
                        const std::vector<TensorSpec> &Hi,
                        const char *What) -> Status {
    if (Lo.size() != Hi.size())
      return Status::errorf(ErrorCode::FailedPrecondition,
                            "batch-%lld variant has %zu %ss, batch-1 has %zu",
                            static_cast<long long>(B), Hi.size(), What,
                            Lo.size());
    for (size_t I = 0; I < Lo.size(); ++I) {
      const TensorSpec &L = Lo[I], &H = Hi[I];
      bool DimsOk = L.Sh.rank() == H.Sh.rank() && L.Sh.rank() >= 1 &&
                    H.Sh.dim(0) == B * L.Sh.dim(0);
      for (int D = 1; DimsOk && D < L.Sh.rank(); ++D)
        DimsOk = L.Sh.dim(D) == H.Sh.dim(D);
      if (!DimsOk || L.Ty != H.Ty)
        return Status::errorf(
            ErrorCode::FailedPrecondition,
            "batch-%lld variant %s %zu is %s %s, want leading dim of %s "
            "scaled by %lld",
            static_cast<long long>(B), What, I, H.Sh.toString().c_str(),
            dtypeName(H.Ty), L.Sh.toString().c_str(),
            static_cast<long long>(B));
    }
    return Status();
  };
  if (Status S = CheckSpecs(BaseSig.Inputs, VariantSig.Inputs, "input");
      !S.ok())
    return S;
  return CheckSpecs(BaseSig.Outputs, VariantSig.Outputs, "output");
}

Expected<std::unique_ptr<DynamicBatcher>>
DynamicBatcher::create(GraphFactory Factory, const CompileOptions &Compile,
                       const BatcherOptions &Options) {
  DNNF_CHECK(Factory != nullptr, "DynamicBatcher::create requires a factory");
  DNNF_CHECK(Options.MaxBatchSize >= 1,
             "BatcherOptions::MaxBatchSize must be >= 1");
  Expected<CompiledModel> Base = compileModel(Factory(1), Compile);
  if (!Base.ok())
    return Base.status();
  auto Session =
      std::make_unique<InferenceSession>(Base.takeValue(), Options.Session);
  return std::unique_ptr<DynamicBatcher>(
      new DynamicBatcher(std::move(Factory), Compile, Options,
                         std::move(Session)));
}

std::unique_ptr<DynamicBatcher>
DynamicBatcher::createForModel(CompiledModel Model,
                               const BatcherOptions &Options) {
  DNNF_CHECK(Options.MaxBatchSize >= 1,
             "BatcherOptions::MaxBatchSize must be >= 1");
  auto Session =
      std::make_unique<InferenceSession>(std::move(Model), Options.Session);
  return std::unique_ptr<DynamicBatcher>(new DynamicBatcher(
      nullptr, CompileOptions(), Options, std::move(Session)));
}

DynamicBatcher::DynamicBatcher(GraphFactory Factory,
                               const CompileOptions &Compile,
                               const BatcherOptions &Options,
                               std::unique_ptr<InferenceSession> BaseSession)
    : Factory(std::move(Factory)), Compile(Compile), Opts(Options),
      Buckets(bucketLadder(Options)), Admission(Options.Admission) {
  Base = BaseSession.get();
  Variants.emplace(1, std::move(BaseSession));
  Counters.BatchSizeCounts.assign(static_cast<size_t>(Opts.MaxBatchSize) + 1,
                                  0);
  Dispatcher = std::thread([this] { dispatchLoop(); });
}

DynamicBatcher::~DynamicBatcher() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ShuttingDown = true;
  }
  QueueCV.notify_all();
  Dispatcher.join();
}

Expected<std::vector<Tensor>>
DynamicBatcher::submit(const std::vector<Tensor> &Inputs,
                       int64_t DeadlineMicros) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.Submitted;
  }
  if (Status S = Base->validateRequest(Inputs); !S.ok()) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.RejectedValidation;
    return S;
  }
  if (Status S = Admission.tryAdmit(); !S.ok()) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.ShedQueueFull;
    return S;
  }
  Clock::time_point Now = Clock::now();
  auto Req = std::make_shared<Pending>();
  Req->Inputs = &Inputs;
  Req->Enqueued = Now;
  Req->Deadline = Admission.deadlineFor(Now, DeadlineMicros);
  // Take the future before publishing the request: after the push, the
  // dispatcher (or the shutdown drain) owns completion.
  std::future<Expected<std::vector<Tensor>>> Done = Req->Done.get_future();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (ShuttingDown) {
      Admission.release();
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.ShedShutdown;
      return Status::error(ErrorCode::FailedPrecondition,
                           "serving front end is shutting down");
    }
    Queue.push_back(Req);
    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      if (Queue.size() > Counters.HighWaterQueueDepth)
        Counters.HighWaterQueueDepth = Queue.size();
    }
    // Signal while still holding QueueMutex: the moment the lock drops,
    // the dispatcher may complete this request, the caller may return
    // from get(), and the owner may destroy this batcher — a notify
    // after unlocking would then touch a destroyed condition variable.
    QueueCV.notify_one();
  }
  // Blocks until the dispatcher fulfills the promise. Everything after the
  // handoff — stats, admission release — is done by the completing side,
  // so this thread touches no batcher state after get(): a registry evict
  // may destroy the batcher the moment the last holder lets go.
  return Done.get();
}

void DynamicBatcher::dispatchLoop() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  while (true) {
    QueueCV.wait(Lock, [&] { return ShuttingDown || !Queue.empty(); });
    if (ShuttingDown)
      break;
    // Work-conserving by default: take whatever queued while the previous
    // batch ran, so a lone request executes at once and only backlog
    // batches. An opt-in arrival window holds the batch open to fill,
    // bounded by the oldest request's window so steady sub-saturation
    // traffic still sees bounded added latency.
    if (Opts.MaxQueueDelayMicros > 0) {
      Clock::time_point WindowEnd =
          Queue.front()->Enqueued + micros(Opts.MaxQueueDelayMicros);
      while (!ShuttingDown &&
             Queue.size() < static_cast<size_t>(Opts.MaxBatchSize)) {
        if (QueueCV.wait_until(Lock, WindowEnd) == std::cv_status::timeout)
          break;
      }
      if (ShuttingDown)
        break;
    }
    std::vector<std::shared_ptr<Pending>> Batch;
    while (!Queue.empty() &&
           Batch.size() < static_cast<size_t>(Opts.MaxBatchSize)) {
      Batch.push_back(std::move(Queue.front()));
      Queue.pop_front();
    }
    Lock.unlock();
    processBatch(std::move(Batch), Clock::now());
    Lock.lock();
  }
  // Shutdown drain: every queued request completes with a typed status —
  // nothing is silently dropped.
  while (!Queue.empty()) {
    std::shared_ptr<Pending> Req = std::move(Queue.front());
    Queue.pop_front();
    Admission.release();
    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.ShedShutdown;
    }
    Req->Done.set_value(Status::error(
        ErrorCode::FailedPrecondition, "serving front end is shutting down"));
  }
}

void DynamicBatcher::processBatch(std::vector<std::shared_ptr<Pending>> Batch,
                                  Clock::time_point DispatchTime) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    for (const std::shared_ptr<Pending> &Req : Batch)
      Counters.QueueMicros.record(
          elapsedMicros(Req->Enqueued, DispatchTime));
  }
  // Deadline shed pass: expired requests get their typed status now and
  // never consume execution.
  std::vector<std::shared_ptr<Pending>> Live;
  Live.reserve(Batch.size());
  for (std::shared_ptr<Pending> &Req : Batch) {
    Status S = Admission.checkDeadline(Req->Deadline, DispatchTime);
    if (S.ok()) {
      Live.push_back(std::move(Req));
      continue;
    }
    Admission.release();
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Counters.ShedDeadline;
    }
    Req->Done.set_value(std::move(S));
  }
  // Degradation work-loop: pick the largest healthy bucket, execute, and
  // on failure either complete the expired members (mid-run deadline) or
  // trip the bucket's breaker and requeue down the ladder. Buckets tripped
  // *within this call* are skipped locally even if their breaker has a
  // zero cooldown, so each requeue strictly shrinks the bucket — the loop
  // terminates at solo execution.
  std::deque<std::shared_ptr<Pending>> Work(Live.begin(), Live.end());
  std::vector<int64_t> TrippedThisBatch;
  // A request counts in DegradedRequests once, when it runs in a smaller
  // sub-batch than its IdealBucket and this call found that bucket open or
  // tripped (Blocked). A mid-run deadline retry re-plans the ideal
  // buckets, so the smaller batch its survivors run in does not count.
  std::vector<int64_t> Blocked;
  auto PlanIdealBuckets = [&] {
    for (size_t I = 0; I < Work.size();) {
      const size_t Left = Work.size() - I;
      const int64_t B = *std::find_if(
          Buckets.begin(), Buckets.end(),
          [&](int64_t C) { return static_cast<size_t>(C) <= Left; });
      for (const size_t End = I + static_cast<size_t>(B); I < End; ++I)
        Work[I]->IdealBucket = B;
    }
  };
  auto IsBlocked = [&](int64_t B) {
    return std::find(Blocked.begin(), Blocked.end(), B) != Blocked.end();
  };
  PlanIdealBuckets();
  while (!Work.empty()) {
    const size_t Remaining = Work.size();
    InferenceSession *Session = nullptr;
    size_t Take = 1;
    for (int64_t B : Buckets) {
      if (static_cast<size_t>(B) > Remaining)
        continue;
      if (std::find(TrippedThisBatch.begin(), TrippedThisBatch.end(), B) ==
          TrippedThisBatch.end()) {
        if (InferenceSession *S = variantFor(B)) {
          Session = S;
          Take = static_cast<size_t>(B);
          break;
        }
      }
      if (!IsBlocked(B))
        Blocked.push_back(B);
    }
    if (!Session) {
      Session = variantFor(1);
      Take = 1;
    }
    DNNF_CHECK(Session != nullptr, "bucket 1 must always be available");

    std::vector<std::shared_ptr<Pending>> Sub(
        Work.begin(), Work.begin() + static_cast<ptrdiff_t>(Take));
    Work.erase(Work.begin(), Work.begin() + static_cast<ptrdiff_t>(Take));
    uint64_t Degraded = 0;
    for (const std::shared_ptr<Pending> &Req : Sub)
      if (!Req->CountedDegraded &&
          static_cast<int64_t>(Take) < Req->IdealBucket &&
          IsBlocked(Req->IdealBucket)) {
        Req->CountedDegraded = true;
        ++Degraded;
      }
    if (Degraded != 0) {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      Counters.DegradedRequests += Degraded;
    }

    Status S = executeSubBatch(Session, Sub);
    if (S.ok()) {
      recordBucketSuccess(static_cast<int64_t>(Take));
      continue;
    }
    if (S.code() == ErrorCode::DeadlineExceeded) {
      // A member's deadline expired mid-run and the execution aborted at
      // the next block checkpoint. Complete the expired members with the
      // typed status; the rest go back on the work list — the bucket is
      // healthy, so no breaker trip. If clock skew says nobody is expired
      // (should be impossible: the run's deadline was the sub-batch min),
      // complete everyone rather than retry forever.
      Clock::time_point Now = Clock::now();
      bool AnyExpired = false;
      for (const std::shared_ptr<Pending> &Req : Sub)
        AnyExpired = AnyExpired || Now >= Req->Deadline;
      std::vector<std::shared_ptr<Pending>> Retry;
      for (std::shared_ptr<Pending> &Req : Sub) {
        if (!AnyExpired || Now >= Req->Deadline)
          completeRequest(Req, Status::error(S.code(), S.message()));
        else
          Retry.push_back(std::move(Req));
      }
      Work.insert(Work.begin(), Retry.begin(), Retry.end());
      PlanIdealBuckets();
      continue;
    }
    // Execution fault. At solo there is nothing smaller to decompose to —
    // the request leaves with the typed failure. Above solo, trip the
    // bucket's breaker and retry the members down the ladder.
    if (Take == 1) {
      completeRequest(Sub[0], std::move(S));
      continue;
    }
    recordBucketFailure(static_cast<int64_t>(Take));
    TrippedThisBatch.push_back(static_cast<int64_t>(Take));
    Work.insert(Work.begin(), Sub.begin(), Sub.end());
  }
}

void DynamicBatcher::completeRequest(const std::shared_ptr<Pending> &Req,
                                     Expected<std::vector<Tensor>> Result) {
  Admission.release();
  {
    Clock::time_point Now = Clock::now();
    std::lock_guard<std::mutex> Lock(StatsMutex);
    if (Result.ok()) {
      ++Counters.Served;
      Counters.TotalMicros.record(elapsedMicros(Req->Enqueued, Now));
    } else if (Result.status().code() == ErrorCode::DeadlineExceeded) {
      ++Counters.DeadlineMidExecution;
    } else {
      ++Counters.FailedExecution;
    }
  }
  Req->Done.set_value(std::move(Result));
}

Status DynamicBatcher::executeSubBatch(
    InferenceSession *Session,
    const std::vector<std::shared_ptr<Pending>> &Requests) {
  const int64_t K = static_cast<int64_t>(Requests.size());
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.BatchesExecuted;
    ++Counters.BatchSizeCounts[static_cast<size_t>(K)];
  }

  // The run executes under the sub-batch's tightest deadline: the moment
  // any member expires, the whole run aborts at the next block checkpoint
  // (abort latency bounded by one block) instead of finishing work nobody
  // will wait for. The caller then retries the unexpired members.
  RunControl Control;
  Control.Deadline = AdmissionController::noDeadline();
  for (const std::shared_ptr<Pending> &Req : Requests)
    Control.Deadline = std::min(Control.Deadline, Req->Deadline);

  if (K == 1) {
    // Solo bucket: straight through the batch-1 session — by definition
    // the reference execution batched outputs are compared against.
    Expected<std::vector<Tensor>> Out =
        Session->run(*Requests[0]->Inputs, nullptr, Control);
    if (!Out.ok())
      return Out.status();
    completeRequest(Requests[0], std::move(Out));
    return Status();
  }

  // Concatenate along the leading dim: request r owns rows
  // [r * baseDim0, (r+1) * baseDim0) of every batched input and output.
  // Tensor allocation can throw under memory pressure (or an armed
  // alloc.tensor fault) — surfaced as a typed status, never a dispatcher
  // crash.
  const ModelSignature &BaseSig = Base->signature();
  std::vector<Tensor> Batched;
  try {
    Batched.reserve(BaseSig.Inputs.size());
    for (size_t In = 0; In < BaseSig.Inputs.size(); ++In) {
      const TensorSpec &Spec = BaseSig.Inputs[In];
      std::vector<int64_t> Dims = Spec.Sh.dims();
      Dims[0] *= K;
      Tensor T(Shape(std::move(Dims)), Spec.Ty);
      const size_t PerReq = static_cast<size_t>(Spec.Sh.numElements());
      for (int64_t R = 0; R < K; ++R)
        std::memcpy(T.data() + static_cast<size_t>(R) * PerReq,
                    (*Requests[static_cast<size_t>(R)]->Inputs)[In].data(),
                    PerReq * sizeof(float));
      Batched.push_back(std::move(T));
    }
  } catch (const std::bad_alloc &) {
    return Status::error(ErrorCode::ResourceExhausted,
                         "out of memory concatenating the sub-batch");
  }

  Expected<std::vector<Tensor>> Out = Session->run(Batched, nullptr, Control);
  if (!Out.ok())
    return Out.status();

  // Slice each request's rows back out into freshly owned tensors. Build
  // every slice before completing anyone: a mid-slice allocation failure
  // then retries the whole sub-batch instead of double-completing.
  std::vector<Tensor> &BatchedOut = Out.value();
  std::vector<std::vector<Tensor>> PerRequest;
  try {
    PerRequest.resize(static_cast<size_t>(K));
    for (int64_t R = 0; R < K; ++R) {
      std::vector<Tensor> &Slices = PerRequest[static_cast<size_t>(R)];
      Slices.reserve(BaseSig.Outputs.size());
      for (size_t O = 0; O < BaseSig.Outputs.size(); ++O) {
        const TensorSpec &Spec = BaseSig.Outputs[O];
        Tensor S(Spec.Sh, Spec.Ty);
        const size_t PerReq = static_cast<size_t>(Spec.Sh.numElements());
        std::memcpy(S.data(),
                    BatchedOut[O].data() + static_cast<size_t>(R) * PerReq,
                    PerReq * sizeof(float));
        Slices.push_back(std::move(S));
      }
    }
  } catch (const std::bad_alloc &) {
    return Status::error(ErrorCode::ResourceExhausted,
                         "out of memory slicing sub-batch outputs");
  }
  for (int64_t R = 0; R < K; ++R)
    completeRequest(Requests[static_cast<size_t>(R)],
                    std::move(PerRequest[static_cast<size_t>(R)]));
  return Status();
}

InferenceSession *DynamicBatcher::variantFor(int64_t B) {
  std::lock_guard<std::mutex> Lock(VariantMutex);
  if (B != 1) {
    auto BIt = Breakers.find(B);
    if (BIt != Breakers.end() && BIt->second.Open) {
      if (Clock::now() < BIt->second.OpenUntil)
        return nullptr;
      // Cooldown elapsed: hand the bucket out as a re-probe. Success
      // closes the breaker (recordBucketSuccess); failure re-opens it for
      // another cooldown (recordBucketFailure).
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.BreakerReprobes;
    }
  }
  auto It = Variants.find(B);
  if (It != Variants.end())
    return It->second.get();
  if (!Factory)
    return nullptr;
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.VariantCompiles;
  }
  // Compile on demand, under VariantMutex: at most one variant compiles at
  // a time, and submit() never waits on it (the queue lock is untouched).
  // CompileOptions::CacheDir makes this a warm artifact load after the
  // first process ever to serve this (model, bucket) pair.
  Expected<CompiledModel> M = compileModel(Factory(B), Compile);
  Status Contract =
      M.ok() ? checkBatchContract(Base->signature(), M->Signature, B)
             : M.status();
  if (!Contract.ok()) {
    // The bucket is unusable right now (factory broke the leading-dim
    // contract, its graph failed to compile at this batch, or a transient
    // cache/fault window). Trip its breaker and fall back to smaller
    // buckets — bucket 1 always exists; the cooldown re-probe retries the
    // compile later in case the failure was transient.
    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.VariantCompileFailures;
    }
    recordBucketFailureLocked(B);
    return nullptr;
  }
  // The factory rebuilt the batch-1 weights for this variant; keep one
  // copy. A variant then costs its plan and arena, not a second set of
  // weights, so the footprint barely depends on which buckets traffic
  // happened to reach.
  if (shareConstants(*M, Base->model()) > 0) {
#if defined(__GLIBC__)
    // Return the dropped copy's pages to the system. Kept by the
    // allocator, they would sit under the next variant's transient copy,
    // and a compile that traffic triggers mid-run would raise the peak
    // footprint by a full set of weights.
    malloc_trim(0);
#endif
  }
  auto Session =
      std::make_unique<InferenceSession>(M.takeValue(), Opts.Session);
  InferenceSession *Ptr = Session.get();
  Variants.emplace(B, std::move(Session));
  recordBucketSuccessLocked(B);
  return Ptr;
}

void DynamicBatcher::recordBucketFailure(int64_t B) {
  std::lock_guard<std::mutex> Lock(VariantMutex);
  recordBucketFailureLocked(B);
}

void DynamicBatcher::recordBucketSuccess(int64_t B) {
  std::lock_guard<std::mutex> Lock(VariantMutex);
  recordBucketSuccessLocked(B);
}

void DynamicBatcher::recordBucketFailureLocked(int64_t B) {
  if (B == 1)
    return; // The ladder floor never breaks — solo always stays available.
  // (Re-)open for a cooldown; a failed re-probe lands here too and buys
  // the bucket another full cooldown.
  Breaker &Br = Breakers[B];
  Br.Open = true;
  Br.OpenUntil = Clock::now() + micros(Opts.BreakerCooldownMicros);
  std::lock_guard<std::mutex> SLock(StatsMutex);
  ++Counters.BreakerTrips;
}

void DynamicBatcher::recordBucketSuccessLocked(int64_t B) {
  if (B == 1)
    return;
  auto It = Breakers.find(B);
  if (It == Breakers.end())
    return;
  Breaker &Br = It->second;
  bool Restored = Br.Open;
  Br.Open = false;
  if (Restored) {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.BreakerRestores;
  }
}

ServingStats DynamicBatcher::stats() const {
  ServingStats Snapshot;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Snapshot = Counters;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Snapshot.QueueDepth = Queue.size();
  }
  {
    std::lock_guard<std::mutex> Lock(VariantMutex);
    for (const auto &Entry : Variants) {
      SessionMetrics M = Entry.second->metrics();
      Snapshot.Sessions.RequestsServed += M.RequestsServed;
      Snapshot.Sessions.RequestsRejected += M.RequestsRejected;
      Snapshot.Sessions.RequestsFailed += M.RequestsFailed;
      Snapshot.Sessions.DeadlinesExceededMidRun += M.DeadlinesExceededMidRun;
      Snapshot.Sessions.CumulativeWallMs += M.CumulativeWallMs;
      Snapshot.Sessions.Engine.add(M.Engine);
      Snapshot.Sessions.ExecMicros.add(M.ExecMicros);
    }
  }
  return Snapshot;
}
