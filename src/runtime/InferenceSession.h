//===- runtime/InferenceSession.h - Multi-client serving ------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer: one compiled model, many concurrent clients. An
/// InferenceSession owns a CompiledModel plus a pool of ExecutionContexts;
/// every run() leases a free context (growing the pool on demand, up to an
/// optional cap) so any number of threads can call run() on the same
/// session simultaneously — the immutable program is shared, all mutable
/// state is per-lease.
///
/// This is the process's request boundary, so it follows the recoverable
/// error model (support/Status.h): every request is validated against the
/// model's ModelSignature — arity, per-input shape, and dtype — *before* a
/// context is leased, and a malformed request returns a Status instead of
/// aborting. Inputs may be bound positionally (signature order) or by
/// name. Leases are RAII-guarded: every exit path — success, abort at a
/// deadline checkpoint, an execution fault, even a thrown bad_alloc —
/// returns the context to the pool, so no failure can shrink serving
/// capacity.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_INFERENCESESSION_H
#define DNNFUSION_RUNTIME_INFERENCESESSION_H

#include "runtime/ExecutionContext.h"
#include "support/LatencyHistogram.h"
#include "support/Status.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

namespace dnnfusion {

/// Serving configuration.
struct SessionOptions {
  /// Hard cap on live ExecutionContexts (each holds an arena, a scratch
  /// buffer and a packing buffer). 0 = grow with demand. When the cap is
  /// reached, run() blocks until a context is released.
  unsigned MaxContexts = 0;
};

/// Monotonic serving counters, snapshot via InferenceSession::metrics().
struct SessionMetrics {
  /// Requests that validated and executed to completion.
  uint64_t RequestsServed = 0;
  /// Requests rejected by signature validation (never reached a context).
  uint64_t RequestsRejected = 0;
  /// Requests that validated, leased a context, and then failed during
  /// execution (deadline/cancel abort, allocation failure, block fault).
  /// Served + Rejected + Failed accounts for every request.
  uint64_t RequestsFailed = 0;
  /// The subset of RequestsFailed aborted at a checkpoint because the
  /// request's deadline expired mid-execution.
  uint64_t DeadlinesExceededMidRun = 0;
  /// Total wall time spent executing served requests, in milliseconds.
  /// Under concurrent clients, the sum over requests (not elapsed time).
  double CumulativeWallMs = 0.0;
  /// Execution-engine path counters summed over served requests:
  /// program steps, packed vs naive Many-to-Many kernel
  /// calls, and prepack hits/misses — serving-side
  /// observability of which paths requests actually took.
  EngineCounters Engine;
  /// Per-request execution latency distribution (microseconds; the same
  /// span CumulativeWallMs sums), so p50/p95/p99 are answerable from a
  /// metrics snapshot — the serving layer aggregates these across its
  /// batch-size variant sessions.
  LatencyHistogram ExecMicros;
};

/// Thread-safe serving wrapper around one compiled model.
class InferenceSession {
public:
  explicit InferenceSession(CompiledModel Model,
                            const SessionOptions &Options = {});

  const CompiledModel &model() const { return M; }
  /// The typed calling convention requests are validated against.
  const ModelSignature &signature() const { return M.Signature; }

  /// Runs one request with inputs bound positionally (signature order).
  /// Safe to call from any number of threads at once; each call executes
  /// on its own leased context. A request failing signature validation
  /// (arity, shape, dtype) is rejected with a Status before any context is
  /// leased — the session stays fully serviceable. \p Control adds a
  /// cooperative deadline/cancel: the run aborts at the next fusion-block
  /// checkpoint with DeadlineExceeded/FailedPrecondition and the context
  /// returns to the pool clean.
  Expected<std::vector<Tensor>> run(const std::vector<Tensor> &Inputs,
                                    ExecutionStats *Stats = nullptr,
                                    const RunControl &Control = {});

  /// Runs one request with inputs bound by signature name. Every model
  /// input must be bound exactly once; unknown names are rejected.
  Expected<std::vector<Tensor>>
  run(const std::map<std::string, Tensor> &Inputs,
      ExecutionStats *Stats = nullptr);

  /// Validates \p Inputs against the model signature without running:
  /// arity, then per-input dtype and shape. Ok iff run() would accept.
  Status validateRequest(const std::vector<Tensor> &Inputs) const;

  /// Serving counters so far (atomic snapshot).
  SessionMetrics metrics() const;

  /// Contexts created so far (high-water mark of concurrency served).
  unsigned contextsCreated() const;

  /// Contexts currently in the free pool. With no request in flight this
  /// equals contextsCreated() — the chaos harness's leak check: any error
  /// path that loses a lease shows up as idle < created after drain.
  unsigned idleContexts() const;

private:
  std::unique_ptr<ExecutionContext> acquire();
  void release(std::unique_ptr<ExecutionContext> Ctx);

  /// RAII context lease: acquires in the constructor, releases on every
  /// destruction path (normal return, error return, exception unwind).
  /// All execution flows through this guard — never a bare acquire().
  class ContextLease {
  public:
    explicit ContextLease(InferenceSession &S) : Session(S), Ctx(S.acquire()) {}
    ~ContextLease() {
      if (Ctx)
        Session.release(std::move(Ctx));
    }
    ContextLease(const ContextLease &) = delete;
    ContextLease &operator=(const ContextLease &) = delete;
    ExecutionContext &operator*() { return *Ctx; }
    ExecutionContext *operator->() { return Ctx.get(); }

  private:
    InferenceSession &Session;
    std::unique_ptr<ExecutionContext> Ctx;
  };

  /// Leases a context and executes an already-validated request.
  Expected<std::vector<Tensor>> runValidated(const std::vector<Tensor> &Inputs,
                                             ExecutionStats *Stats,
                                             const RunControl &Control);
  Status reject(Status S);

  CompiledModel M;
  SessionOptions Opts;

  mutable std::mutex Mutex;
  std::condition_variable ContextReleased;
  std::vector<std::unique_ptr<ExecutionContext>> FreeContexts;
  unsigned Created = 0;
  SessionMetrics Metrics;
};

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_INFERENCESESSION_H
