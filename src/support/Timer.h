//===- support/Timer.h - Wall-clock timing ----------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A steady-clock stopwatch used by compileModel's phase timers, the
/// runtime's per-block timing, the benches, and the compilation-time
/// experiment (Figure 9b).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_TIMER_H
#define DNNFUSION_SUPPORT_TIMER_H

#include <chrono>

namespace dnnfusion {

/// A simple stopwatch over std::chrono::steady_clock.
class WallTimer {
public:
  WallTimer() { reset(); }

  /// Restarts the stopwatch.
  void reset() { Start = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    auto Now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(Now - Start).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  double millis() const { return seconds() * 1e3; }

  /// Microseconds elapsed since construction or the last reset().
  double micros() const { return seconds() * 1e6; }

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_TIMER_H
