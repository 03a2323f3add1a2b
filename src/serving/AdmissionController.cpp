//===- serving/AdmissionController.cpp - Bounded-queue admission ----------------===//

#include "serving/AdmissionController.h"

using namespace dnnfusion;

AdmissionController::AdmissionController(const AdmissionOptions &Options)
    : Opts(Options) {
  DNNF_CHECK(Opts.MaxQueueDepth >= 1,
             "AdmissionOptions::MaxQueueDepth must be >= 1");
}

Status AdmissionController::tryAdmit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Counters.Depth >= Opts.MaxQueueDepth) {
    ++Counters.RejectedQueueFull;
    return Status::errorf(ErrorCode::ResourceExhausted,
                          "serving queue is full (%zu queued, bound %zu); "
                          "retry with backoff",
                          Counters.Depth, Opts.MaxQueueDepth);
  }
  ++Counters.Admitted;
  ++Counters.Depth;
  if (Counters.Depth > Counters.HighWaterDepth)
    Counters.HighWaterDepth = Counters.Depth;
  return Status();
}

void AdmissionController::release() {
  std::lock_guard<std::mutex> Lock(Mutex);
  DNNF_CHECK(Counters.Depth > 0,
             "AdmissionController::release without a matching tryAdmit");
  --Counters.Depth;
}

AdmissionController::Clock::time_point
AdmissionController::deadlineFor(Clock::time_point Now,
                                 int64_t RelativeMicros) const {
  int64_t Micros =
      RelativeMicros > 0 ? RelativeMicros : Opts.DefaultDeadlineMicros;
  if (Micros <= 0)
    return noDeadline();
  // The sum is taken in the clock's signed nanosecond count, so a huge
  // request (INT64_MAX as "never expire") would overflow into the past.
  // Saturate: anything at or beyond the clock's range never expires.
  int64_t HeadroomMicros =
      std::chrono::duration_cast<std::chrono::microseconds>(noDeadline() - Now)
          .count();
  if (Micros >= HeadroomMicros)
    return noDeadline();
  return Now + std::chrono::microseconds(Micros);
}

Status AdmissionController::checkDeadline(Clock::time_point Deadline,
                                          Clock::time_point Now) {
  if (Now <= Deadline)
    return Status();
  int64_t LateMicros =
      std::chrono::duration_cast<std::chrono::microseconds>(Now - Deadline)
          .count();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.ShedDeadline;
  }
  return Status::errorf(ErrorCode::DeadlineExceeded,
                        "request deadline passed %lld us before dispatch",
                        static_cast<long long>(LateMicros));
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}
