//===- serving/DynamicBatcher.h - Work-conserving request batching -*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-batching front end: the queueing layer between concurrent
/// clients and the InferenceSession context pool. Concurrent submit()
/// calls are coalesced by a dispatcher thread into shared leading-dim
/// batched executions — one batch-B run over shared weights amortizes
/// per-request dispatch overhead and turns B independent GEMVs into one
/// GEMM: M = B rows for activation x weight layers, N = B columns for
/// weight-stationary W x X layers (the packed engine's narrow-N route),
/// so each weight is read once per batch instead of once per request.
/// That is where the fusion wins of the compile pipeline start paying off
/// under load instead of per invocation.
///
/// The dispatcher is work-conserving: the moment it is free it takes
/// everything queued (up to MaxBatchSize). A lone request therefore goes
/// straight to execution, and batches form from the backlog that builds
/// while the previous batch runs — under saturation that backlog fills
/// batches with no timer. A non-zero MaxQueueDelayMicros opts into an
/// arrival window instead, holding each batch open for more arrivals.
///
///   clients ──submit()──► AdmissionController ──queue──► dispatcher
///                              │ full: ResourceExhausted      │
///                              │ late: DeadlineExceeded       ▼
///                              ▼                    batch-B InferenceSession
///                        typed Status                (per-bucket variants,
///                                                     compile-on-demand)
///
/// Batch-B model variants come from a caller-supplied GraphFactory
/// (`Graph(int64_t Batch)`): the factory builds the same model with its
/// leading (batch) dimension scaled, variants are compiled on demand for
/// the configured bucket ladder (e.g. {1,2,4,8}) and cached through the
/// ordinary compilation cache when CompileOptions::CacheDir is set. Each
/// dispatched batch is decomposed greedily into bucket-sized sub-batches
/// (7 requests -> 4+2+1), inputs are concatenated along the leading dim,
/// and outputs are sliced back out per request — bit-identical to solo
/// batch-1 execution for row-decomposable models (every model op computes
/// each leading-dim row independently; enforced across the batched zoo in
/// tests/test_serving.cpp).
///
/// Every request leaves exactly one way: with outputs, or with a typed
/// Status (validation, queue-full, deadline, shutdown). Nothing aborts,
/// nothing is silently dropped.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERVING_DYNAMICBATCHER_H
#define DNNFUSION_SERVING_DYNAMICBATCHER_H

#include "runtime/InferenceSession.h"
#include "serving/AdmissionController.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace dnnfusion {

/// Batching configuration (see BUILDING.md for the knob table).
struct BatcherOptions {
  /// Most requests coalesced into one dispatched batch. Also caps the
  /// bucket ladder: configured BatchSizes above this are ignored.
  int64_t MaxBatchSize = 8;
  /// Arrival window. 0 (the default) dispatches whatever is queued the
  /// moment the dispatcher is free, so batches form only from backlog. A
  /// non-zero window holds each batch until it is full or this long has
  /// passed since its oldest request arrived: added latency for every
  /// request in exchange for larger batches below saturation.
  int64_t MaxQueueDelayMicros = 0;
  /// Batch-shape bucket ladder. A variant model is compiled on demand per
  /// bucket actually used; dispatched batches decompose greedily into
  /// bucket sizes (largest first). 1 is always available implicitly.
  std::vector<int64_t> BatchSizes = {1, 2, 4, 8};
  /// Bounded queue + deadline shedding (see AdmissionController).
  AdmissionOptions Admission;
  /// Session options (the context cap) for every per-bucket InferenceSession.
  SessionOptions Session;
  /// Per-bucket circuit breaker: consecutive compile/execution failures on
  /// one batch bucket before it opens. While open, dispatch decomposes
  /// down the ladder (ultimately to solo execution) instead of failing the
  /// requests; bucket 1 never opens — it is the floor of the ladder.
  int BreakerFailureThreshold = 1;
  /// How long an open bucket stays closed to traffic before one dispatch
  /// re-probes it (a successful probe restores the bucket; a failed one
  /// re-opens it for another cooldown).
  int64_t BreakerCooldownMicros = 250000;
};

/// Serving counters + distributions, snapshot via DynamicBatcher::stats().
struct ServingStats {
  /// submit() calls, before any gate.
  uint64_t Submitted = 0;
  /// Requests that executed and returned outputs.
  uint64_t Served = 0;
  /// Requests rejected by signature validation (never queued).
  uint64_t RejectedValidation = 0;
  /// Requests rejected at arrival: queue full (ResourceExhausted).
  uint64_t ShedQueueFull = 0;
  /// Admitted requests shed at dispatch: deadline passed (DeadlineExceeded).
  uint64_t ShedDeadline = 0;
  /// Requests drained during shutdown (FailedPrecondition).
  uint64_t ShedShutdown = 0;
  /// Batched executions dispatched (each serves >= 1 request).
  uint64_t BatchesExecuted = 0;
  /// BatchSizeCounts[B] = executions dispatched at batch size B
  /// (index 0 unused; size MaxBatchSize + 1).
  std::vector<uint64_t> BatchSizeCounts;
  /// Requests queued right now / the most ever queued at once.
  size_t QueueDepth = 0;
  size_t HighWaterQueueDepth = 0;
  /// Batch-variant compiles performed on demand (cache hits included) and
  /// compiles abandoned because the factory's graph broke the leading-dim
  /// contract or failed to compile (each such failure trips the bucket's
  /// circuit breaker).
  uint64_t VariantCompiles = 0;
  uint64_t VariantCompileFailures = 0;
  /// Circuit-breaker lifecycle: buckets opened (compile/execution failures
  /// reached BreakerFailureThreshold), cooldown re-probes dispatched, and
  /// buckets restored to service by a successful re-probe.
  uint64_t BreakerTrips = 0;
  uint64_t BreakerReprobes = 0;
  uint64_t BreakerRestores = 0;
  /// Requests that executed in a smaller sub-batch than the ladder could
  /// have offered because an open breaker forced decomposition.
  uint64_t DegradedRequests = 0;
  /// Requests completed with a non-deadline execution failure (typed
  /// Status delivered to the caller after the ladder bottomed out at solo).
  uint64_t FailedExecution = 0;
  /// Requests whose deadline expired *mid-execution* (the run aborted at a
  /// block checkpoint), as opposed to ShedDeadline's never-started.
  uint64_t DeadlineMidExecution = 0;
  /// Request time spent queued (submit to dispatch).
  LatencyHistogram QueueMicros;
  /// Per-request end-to-end latency (submit to completion).
  LatencyHistogram TotalMicros;
  /// Aggregated session metrics across every batch-size variant (execution
  /// latency histogram, engine counters, served/rejected at session level).
  SessionMetrics Sessions;
};

/// Thread-safe dynamic-batching serving front end for one model family.
/// Owns one dispatcher thread plus one InferenceSession per batch-size
/// bucket in use. Destruction drains: queued requests complete with a
/// typed FailedPrecondition status, then the dispatcher joins.
class DynamicBatcher {
public:
  /// Builds the same model at leading-dim batch \p Batch (>= 1). Must be
  /// deterministic: every batch must yield identical weights (the zoo's
  /// seeded builders do this by construction).
  using GraphFactory = std::function<Graph(int64_t Batch)>;

  /// Creates a batching front end over \p Factory. The batch-1 variant is
  /// compiled eagerly (it defines the request signature); other buckets
  /// compile on first use and keep no weights of their own: each constant
  /// that matches a batch-1 constant byte for byte shares its storage
  /// (shareConstants). Compilation goes through \p Compile unchanged,
  /// so a configured CacheDir gives every variant a warm start. Fails with
  /// the compile error when the factory's batch-1 graph is rejected.
  static Expected<std::unique_ptr<DynamicBatcher>>
  create(GraphFactory Factory, const CompileOptions &Compile,
         const BatcherOptions &Options = {});

  /// Queue + admission front end over one fixed, already-compiled model:
  /// no leading-dim coalescing (every dispatch executes batch-1 requests
  /// one by one), but the same bounded queue, deadline shedding, and
  /// serving metrics. This is what a model loaded from a saved artifact
  /// (no factory available) gets in the ModelRegistry.
  static std::unique_ptr<DynamicBatcher>
  createForModel(CompiledModel Model, const BatcherOptions &Options = {});

  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher &) = delete;
  DynamicBatcher &operator=(const DynamicBatcher &) = delete;

  /// Submits one request and blocks until it is served or shed. Inputs are
  /// validated against the batch-1 signature up front (InvalidArgument /
  /// NotFound-style rejections, identical to InferenceSession::run). The
  /// caller's tensors are only read between admission and completion.
  /// \p DeadlineMicros is relative to arrival; 0 uses
  /// AdmissionOptions::DefaultDeadlineMicros (0 there too = no deadline).
  Expected<std::vector<Tensor>> submit(const std::vector<Tensor> &Inputs,
                                       int64_t DeadlineMicros = 0);

  /// The batch-1 calling convention submit() validates against.
  const ModelSignature &signature() const { return Base->signature(); }

  /// The batch-1 model (shared weights, compile stats).
  const CompiledModel &model() const { return Base->model(); }

  const BatcherOptions &options() const { return Opts; }

  /// Serving counters so far (atomic snapshot; session metrics aggregated
  /// across every live batch-size variant).
  ServingStats stats() const;

private:
  using Clock = AdmissionController::Clock;

  /// One queued request: borrowed inputs (the submitting thread blocks on
  /// Done until completion, keeping them alive), its deadline, and the
  /// result slot.
  struct Pending {
    const std::vector<Tensor> *Inputs = nullptr;
    Clock::time_point Enqueued;
    Clock::time_point Deadline;
    std::promise<Expected<std::vector<Tensor>>> Done;
  };

  DynamicBatcher(GraphFactory Factory, const CompileOptions &Compile,
                 const BatcherOptions &Options,
                 std::unique_ptr<InferenceSession> BaseSession);

  void dispatchLoop();
  /// Sheds expired requests, then runs the degradation work-loop: decompose
  /// into the largest healthy bucket, execute, and on failure either trip
  /// the bucket's breaker and requeue down the ladder (execution faults) or
  /// complete the expired requests and retry the rest (mid-run deadline).
  /// Every request leaves with outputs or a typed Status.
  void processBatch(std::vector<std::shared_ptr<Pending>> Batch,
                    Clock::time_point DispatchTime);
  /// Executes \p Requests (all same size K = Requests.size()) on
  /// \p Session (the bucket-K variant): concatenate along the leading dim,
  /// run under the sub-batch's tightest deadline, slice out. On success
  /// every promise is fulfilled and Ok is returned; on failure *no*
  /// promise is touched — the caller owns retry/complete policy.
  Status executeSubBatch(InferenceSession *Session,
                         const std::vector<std::shared_ptr<Pending>> &Requests);
  /// The session for bucket \p B, compiling it on first use. Returns null
  /// when no factory is available, the compile fails, or the bucket's
  /// breaker is open and still cooling down (\p CoolingDown set true in
  /// that last case so the caller can count degraded requests); the caller
  /// then decomposes into smaller buckets — bucket 1 always exists and
  /// never breaks. An open bucket whose cooldown has elapsed is handed out
  /// once as a half-open probe.
  InferenceSession *variantFor(int64_t B, bool *CoolingDown = nullptr);
  /// Breaker bookkeeping after an execution/compile outcome for bucket
  /// \p B. Failure trips the breaker at BreakerFailureThreshold; success
  /// closes it (counting a restore if it was open, i.e. a re-probe
  /// succeeded). Bucket 1 is exempt. The *Locked forms require
  /// VariantMutex to be held already.
  void recordBucketFailure(int64_t B);
  void recordBucketSuccess(int64_t B);
  void recordBucketFailureLocked(int64_t B);
  void recordBucketSuccessLocked(int64_t B);
  /// Completes one request exactly once: releases its admission slot,
  /// records latency + the outcome counter, fulfills the promise.
  void completeRequest(const std::shared_ptr<Pending> &Req,
                       Expected<std::vector<Tensor>> Result);
  /// The leading-dim scaling contract between the batch-1 signature and a
  /// batch-B variant's.
  static Status checkBatchContract(const ModelSignature &BaseSig,
                                   const ModelSignature &VariantSig,
                                   int64_t B);
  /// Descending bucket ladder (deduped, clamped to MaxBatchSize, 1 forced).
  static std::vector<int64_t> bucketLadder(const BatcherOptions &Options);

  GraphFactory Factory; ///< Null in createForModel mode.
  CompileOptions Compile;
  BatcherOptions Opts;
  std::vector<int64_t> Buckets; ///< Descending; always contains 1.

  AdmissionController Admission;

  /// Bucket size -> lazily compiled serving session. Bucket 1 is the
  /// eagerly built Base. Guarded by VariantMutex (compiles run under it —
  /// serialized, but off the queue lock so submit() never waits on a
  /// compile).
  InferenceSession *Base = nullptr; ///< Convenience alias of Variants[1].
  std::map<int64_t, std::unique_ptr<InferenceSession>> Variants;
  /// Per-bucket circuit breaker (guarded by VariantMutex). A bucket whose
  /// compile or execution fails BreakerFailureThreshold times in a row
  /// opens: traffic decomposes around it until BreakerCooldownMicros
  /// elapses, then one dispatch re-probes it (HalfOpen). Compile failures
  /// and execution faults share the same breaker — both heal the same way,
  /// by trying again later (a cache that was briefly unreadable, a fault
  /// window that closed). Bucket 1 has no breaker; it is the ladder floor.
  struct Breaker {
    int ConsecutiveFailures = 0;
    bool Open = false;
    bool HalfOpen = false; ///< A cooldown re-probe is in flight.
    Clock::time_point OpenUntil{};
  };
  std::map<int64_t, Breaker> Breakers;
  mutable std::mutex VariantMutex;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::shared_ptr<Pending>> Queue;
  bool ShuttingDown = false;

  mutable std::mutex StatsMutex;
  ServingStats Counters;

  std::thread Dispatcher;
};

} // namespace dnnfusion

#endif // DNNFUSION_SERVING_DYNAMICBATCHER_H
