//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload runs one seeded traffic shape through the library's
/// public entry points with library defaults, checks every output, and
/// fills a Result. With Options::Trace the run is split: the first half is
/// untraced (the baseline the tracing overhead is measured against), the
/// second half records spans and yields the per-layer metrics.
///
/// dump*Inputs print digests of everything the seed decides (inputs,
/// model order, arrival schedule) without measuring — what the seed
/// self-test compares across runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// One caller, closed loop, batch 1, round-robin over six zoo models
/// through InferenceSession::run.
Result runSingleStream(const Options &O);
void dumpSingleStreamInputs(const Options &O);

/// Seeded Poisson arrivals at a fixed rate ladder into ModelRegistry::run
/// (default BatcherOptions) serving the weight-stationary MLP.
Result runServeOpen(const Options &O);
void dumpServeOpenInputs(const Options &O);

/// All 15 zoo models compiled cold into an empty cache directory, then
/// warm, over repeated passes.
Result runCompileZoo(const Options &O);
void dumpCompileZooInputs(const Options &O);

/// Senders the serving workload uses: min(4, nproc).
unsigned serveOpenSenders();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
