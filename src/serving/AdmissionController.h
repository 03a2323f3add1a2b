//===- serving/AdmissionController.h - Bounded-queue admission ---*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission policy of the serving front end: a bounded queue with
/// deadline-based shedding. Every request entering the serving layer passes
/// tryAdmit() first — when the queue is at capacity the request is rejected
/// immediately with ErrorCode::ResourceExhausted (backpressure the caller
/// can see and retry on) instead of growing an unbounded backlog whose tail
/// latency nobody can meet. Admitted requests carry an absolute deadline;
/// at dispatch time checkDeadline() sheds the ones whose deadline has
/// already passed with ErrorCode::DeadlineExceeded, so a saturated server
/// spends its cycles on answers someone is still waiting for.
///
/// Both outcomes are typed Status rejections through the recoverable error
/// model — the serving layer never aborts and never silently drops a
/// request. DynamicBatcher composes this class; it is also usable (and
/// tested) standalone.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERVING_ADMISSIONCONTROLLER_H
#define DNNFUSION_SERVING_ADMISSIONCONTROLLER_H

#include "support/Status.h"

#include <chrono>
#include <cstdint>
#include <mutex>

namespace dnnfusion {

/// Admission policy knobs.
struct AdmissionOptions {
  /// Hard bound on requests queued awaiting dispatch. A request arriving
  /// at a full queue is rejected with ResourceExhausted. Must be >= 1.
  size_t MaxQueueDepth = 256;
  /// Deadline applied to requests that do not carry their own, relative to
  /// arrival. 0 = such requests never expire.
  int64_t DefaultDeadlineMicros = 0;
};

/// Counters snapshot (see AdmissionController::stats).
struct AdmissionStats {
  /// Requests that passed the queue bound.
  uint64_t Admitted = 0;
  /// Requests rejected at arrival because the queue was full.
  uint64_t RejectedQueueFull = 0;
  /// Admitted requests shed at dispatch because their deadline passed.
  uint64_t ShedDeadline = 0;
  /// Requests currently admitted and not yet released.
  size_t Depth = 0;
  /// Highest Depth ever observed.
  size_t HighWaterDepth = 0;
};

/// Thread-safe bounded-queue + deadline admission policy.
class AdmissionController {
public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionController(const AdmissionOptions &Options = {});

  const AdmissionOptions &options() const { return Opts; }

  /// Admits one request, or rejects it with ResourceExhausted when the
  /// queue bound is reached. Every Ok return must be paired with exactly
  /// one release() once the request leaves the queue (served or shed).
  Status tryAdmit();

  /// Marks one admitted request as having left the queue.
  void release();

  /// The absolute deadline of a request arriving at \p Now asking for
  /// \p RelativeMicros (0 = use DefaultDeadlineMicros; when that is also
  /// 0 the request never expires). A deadline past the clock's range
  /// saturates to noDeadline().
  Clock::time_point deadlineFor(Clock::time_point Now,
                                int64_t RelativeMicros) const;

  /// Ok while \p Deadline has not passed at \p Now; otherwise counts the
  /// shed and returns DeadlineExceeded carrying how late dispatch was.
  Status checkDeadline(Clock::time_point Deadline, Clock::time_point Now);

  /// The time_point meaning "never expires".
  static Clock::time_point noDeadline() { return Clock::time_point::max(); }

  AdmissionStats stats() const;

private:
  AdmissionOptions Opts;
  mutable std::mutex Mutex;
  AdmissionStats Counters;
};

} // namespace dnnfusion

#endif // DNNFUSION_SERVING_ADMISSIONCONTROLLER_H
