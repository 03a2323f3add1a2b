//===- profiler/ProfilingOracle.h - Measuring latency oracle -------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A LatencyOracle that actually measures candidate fusion blocks: it
/// extracts the member operators into a micro-graph (external producers
/// become random-filled placeholders), compiles them as one fused block,
/// and times a few executions. Results land in the ProfileDb so repeated
/// shapes — and later compilations (Figure 9b "with database") — resolve
/// with a lookup.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_PROFILER_PROFILINGORACLE_H
#define DNNFUSION_PROFILER_PROFILINGORACLE_H

#include "core/FusionPlan.h"
#include "profiler/ProfileDb.h"

namespace dnnfusion {

/// Measures fused-block latency, memoized through a ProfileDb.
class ProfilingOracle : public LatencyOracle {
public:
  /// \p Db outlives the oracle. \p Repeats controls measurement cost.
  explicit ProfilingOracle(ProfileDb &Db, int Repeats = 3)
      : Db(Db), Repeats(Repeats) {}

  double blockLatencyMs(const Graph &G,
                        const std::vector<NodeId> &Members) override;

  /// Total wall time spent measuring (excludes database hits) in ms.
  double measurementMs() const { return SpentMs; }

private:
  ProfileDb &Db;
  int Repeats;
  double SpentMs = 0.0;
};

} // namespace dnnfusion

#endif // DNNFUSION_PROFILER_PROFILINGORACLE_H
