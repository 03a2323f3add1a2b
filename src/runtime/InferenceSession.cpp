//===- runtime/InferenceSession.cpp - Multi-client serving -----------------------===//

#include "runtime/InferenceSession.h"

#include "support/ThreadPool.h"
#include "support/Timer.h"

using namespace dnnfusion;

InferenceSession::InferenceSession(CompiledModel Model,
                                   const SessionOptions &Options)
    : M(std::move(Model)), Opts(Options) {}

unsigned InferenceSession::contextsCreated() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Created;
}

unsigned InferenceSession::idleContexts() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return static_cast<unsigned>(FreeContexts.size());
}

SessionMetrics InferenceSession::metrics() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Metrics;
}

std::unique_ptr<ExecutionContext> InferenceSession::acquire() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    if (!FreeContexts.empty()) {
      std::unique_ptr<ExecutionContext> Ctx = std::move(FreeContexts.back());
      FreeContexts.pop_back();
      return Ctx;
    }
    if (Opts.MaxContexts == 0 || Created < Opts.MaxContexts) {
      ++Created;
      Lock.unlock(); // Context construction (buffer allocation) off-lock.
      try {
        return std::make_unique<ExecutionContext>(M);
      } catch (...) {
        // Give the capacity slot back (e.g. bad_alloc sizing the arena),
        // or a capped session would livelock waiting for a context that
        // will never exist.
        {
          std::lock_guard<std::mutex> Relock(Mutex);
          --Created;
        }
        ContextReleased.notify_one();
        throw;
      }
    }
    // At the cap: wait for a lease to return. Holders always finish —
    // their runs execute inline or on the pool without needing this
    // thread — so this cannot deadlock.
    ContextReleased.wait(Lock);
  }
}

void InferenceSession::release(std::unique_ptr<ExecutionContext> Ctx) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    FreeContexts.push_back(std::move(Ctx));
  }
  ContextReleased.notify_one();
}

Status InferenceSession::validateRequest(
    const std::vector<Tensor> &Inputs) const {
  const ModelSignature &Sig = M.Signature;
  if (Inputs.size() != Sig.Inputs.size())
    return Status::errorf(ErrorCode::InvalidArgument,
                          "request has %zu inputs, model expects %zu",
                          Inputs.size(), Sig.Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const TensorSpec &Spec = Sig.Inputs[I];
    if (Inputs[I].isNull())
      return Status::errorf(ErrorCode::InvalidArgument,
                            "input %zu ('%s') is a null tensor", I,
                            Spec.Name.c_str());
    if (Inputs[I].dtype() != Spec.Ty)
      return Status::errorf(ErrorCode::InvalidArgument,
                            "input %zu ('%s') has dtype %s, model expects %s",
                            I, Spec.Name.c_str(),
                            dtypeName(Inputs[I].dtype()), dtypeName(Spec.Ty));
    if (Inputs[I].shape() != Spec.Sh)
      return Status::errorf(ErrorCode::InvalidArgument,
                            "input %zu ('%s') has shape %s, model expects %s",
                            I, Spec.Name.c_str(),
                            Inputs[I].shape().toString().c_str(),
                            Spec.Sh.toString().c_str());
  }
  return Status();
}

Status InferenceSession::reject(Status S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Metrics.RequestsRejected;
  return S;
}

Expected<std::vector<Tensor>>
InferenceSession::runValidated(const std::vector<Tensor> &Inputs,
                               ExecutionStats *Stats,
                               const RunControl &Control) {
  // Everything after the lease is guarded: success, checkpoint abort,
  // execution fault, or exception — the context always returns to the
  // pool (losing one would shrink, or capped eventually livelock, the
  // session). Pool growth itself can fail (bad_alloc sizing the arena);
  // that surfaces as ResourceExhausted without consuming a lease.
  Expected<std::vector<Tensor>> Outputs =
      Status::error(ErrorCode::Internal, "request never executed");
  double WallMs = 0.0;
  ExecutionStats Local;
  try {
    ContextLease Lease(*this);
    // Started after acquire(): CumulativeWallMs is execution time, not
    // time spent blocked waiting for a context under a MaxContexts cap.
    WallTimer Timer;
    // Stats are always collected so the session can record which engine
    // paths (packed vs naive, prepack hit/miss, kernel tier) the
    // request's execution actually took.
    Outputs = Lease->tryRun(Inputs, &Local, false, Control);
    WallMs = Timer.millis();
  } catch (const std::bad_alloc &) {
    Outputs = Status::error(ErrorCode::ResourceExhausted,
                            "out of memory growing the context pool");
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Outputs.ok()) {
    ++Metrics.RequestsFailed;
    if (Outputs.status().code() == ErrorCode::DeadlineExceeded)
      ++Metrics.DeadlinesExceededMidRun;
    return Outputs;
  }
  ++Metrics.RequestsServed;
  Metrics.CumulativeWallMs += WallMs;
  Metrics.Engine.add(Local.Engine);
  Metrics.ExecMicros.record(WallMs * 1000.0);
  if (Stats)
    *Stats = Local;
  return Outputs;
}

Expected<std::vector<Tensor>>
InferenceSession::run(const std::vector<Tensor> &Inputs,
                      ExecutionStats *Stats, const RunControl &Control) {
  if (Status S = validateRequest(Inputs); !S.ok())
    return reject(std::move(S));
  return runValidated(Inputs, Stats, Control);
}

Expected<std::vector<Tensor>>
InferenceSession::run(const std::map<std::string, Tensor> &Inputs,
                      ExecutionStats *Stats) {
  const ModelSignature &Sig = M.Signature;
  for (const auto &Entry : Inputs)
    if (Sig.inputIndex(Entry.first) < 0)
      return reject(Status::errorf(ErrorCode::NotFound,
                                   "model has no input named '%s'",
                                   Entry.first.c_str()));
  if (Inputs.size() != Sig.Inputs.size()) {
    for (const TensorSpec &Spec : Sig.Inputs)
      if (!Inputs.count(Spec.Name))
        return reject(Status::errorf(ErrorCode::InvalidArgument,
                                     "request is missing input '%s'",
                                     Spec.Name.c_str()));
  }
  std::vector<Tensor> Positional;
  Positional.reserve(Sig.Inputs.size());
  for (const TensorSpec &Spec : Sig.Inputs)
    Positional.push_back(Inputs.at(Spec.Name));
  if (Status S = validateRequest(Positional); !S.ok())
    return reject(std::move(S));
  return runValidated(Positional, Stats, RunControl());
}

std::vector<Expected<std::vector<Tensor>>>
InferenceSession::runBatch(const std::vector<std::vector<Tensor>> &Batch,
                           const RunControl &Control) {
  // One result slot per request, failures isolated per entry: a malformed
  // request is rejected in place, a faulting one carries its own Status —
  // siblings execute regardless. Every error is index-tagged so a client
  // fanning a batch out can attribute it without positional bookkeeping.
  std::vector<Expected<std::vector<Tensor>>> Results(
      Batch.size(),
      Status::error(ErrorCode::Internal, "batch entry never executed"));
  std::vector<size_t> ToRun;
  ToRun.reserve(Batch.size());
  for (size_t R = 0; R < Batch.size(); ++R) {
    if (Status S = validateRequest(Batch[R]); !S.ok())
      Results[R] = reject(Status::errorf(S.code(), "batch request %zu: %s", R,
                                         S.message().c_str()));
    else
      ToRun.push_back(R);
  }
  ThreadPool::global().forEach(
      static_cast<int64_t>(ToRun.size()), [&](int64_t I) {
        size_t R = ToRun[static_cast<size_t>(I)];
        Expected<std::vector<Tensor>> Out =
            runValidated(Batch[R], nullptr, Control);
        if (Out.ok())
          Results[R] = std::move(Out);
        else
          Results[R] =
              Status::errorf(Out.status().code(), "batch request %zu: %s", R,
                             Out.status().message().c_str());
      });
  return Results;
}
