//===- perfbench/src/Common.h - Shared benchmark machinery ------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: options, the result record (gated
/// end-to-end metrics, per-layer metrics, ungated report rows, the
/// correctness tally), raw-sample statistics, the in-memory span tracer,
/// seeded input generation, block classification for the per-step-kind
/// roll-up, and the run context printed with every result.
///
/// Every timing here is the benchmark's own steady_clock measurement of a
/// call into a public library function; the library's own histograms are
/// never used for percentiles.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/BlockCompiler.h"
#include "runtime/ModelCompiler.h"
#include "tensor/Tensor.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady_clock points.
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Source revision, as passed by run.py (the checkout may not be a git
  /// repository).
  std::string Commit = "unknown";
  /// Working directory for on-disk state: compilation caches, and the
  /// traced run's spans (spans-<workload>-seed<seed>.jsonl).
  std::string WorkDir = ".bench_build/work";
  /// Self-test mode: print digests of the seeded inputs and schedule and
  /// exit without measuring.
  bool DumpInputs = false;
};

/// One reported number.
struct Metric {
  double Value = 0.0;
  std::string Unit;
  /// Raw samples the value was computed from (0 = a count, not a sample
  /// statistic).
  int64_t Samples = 0;
};

/// Everything one workload run reports.
struct Result {
  /// End-to-end metrics (BENCHMARK.json "end_to_end"), untraced runs only.
  std::map<std::string, Metric> Gated;
  /// Per-layer metrics (BENCHMARK.json "per_layer"), traced runs only.
  /// Pre-filled with every name at 0 ("this layer did no work here").
  std::map<std::string, Metric> Layers;
  /// Human-readable ungated lines: per-model rows, tail percentiles,
  /// ladder points, metrics that exist on one workload only.
  std::vector<std::string> Rows;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// The first few divergence/failure messages.
  std::vector<std::string> Failures;

  Result();
  void gated(const std::string &Name, double Value, int64_t Samples);
  void layer(const std::string &Name, double Value, int64_t Samples = 0);
  void row(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Counts one failed or wrong operation (the caller already counted it
  /// as attempted) and keeps its message.
  void fail(const std::string &Message);
};

/// The gated end-to-end metric names with their units, in report order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
/// The per-layer metric names with their units, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

//===----------------------------------------------------------------------===//
// Raw-sample statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile \p P (0..100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50.0);
}
/// True when at least ten of \p N samples lie beyond percentile \p P, on
/// the side away from the median (above p90, below p25) — the condition
/// for reporting that percentile at all.
bool percentileSupported(size_t N, double P);
/// Percentile of each request's latency gated as latency_ms where requests
/// have a latency distribution (single-stream, serve-open). The lower
/// quartile, not the median: hypervisor steal shifts the upper half of the
/// distribution, and medians spread past the gate's bound from one run to
/// the next on a shared host (METRICS.md, Steadiness).
inline constexpr double GatedLatencyPercentile = 25.0;
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);
/// Reports the set-up samples behind setup_s: count, min, median, max.
void setupRow(Result &R, const std::vector<double> &SetupS);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One span: a call into a layer's public function, as seen from the
/// benchmark.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  int64_t Request = -1;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch. Thread-safe (the serving workload records from its sender
/// threads).
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }
  /// Opens a span; returns its id (-1 when disabled).
  int32_t begin(const char *Name, int32_t Parent = -1, int64_t Request = -1);
  void end(int32_t Id);
  /// Duration of span \p Id in milliseconds (0 for -1).
  double ms(int32_t Id) const;
  /// Writes every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path) const;
  /// Writes the spans of a traced run to
  /// <WorkDir>/spans-<workload>-seed<seed>.jsonl (nothing when disabled).
  void save(const Options &O) const;

private:
  bool Enabled;
  Clock::time_point Epoch;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Inputs, outputs, classification
//===----------------------------------------------------------------------===//

/// Independent sub-seed for stream \p Tag of the run seed.
uint64_t subSeed(uint64_t Seed, uint64_t Tag);
/// Seeded random values in [0.2, 1) for every live input of \p G, in
/// node order (the positional order compileModel gives the signature).
std::vector<dnnfusion::Tensor> makeInputs(const dnnfusion::Graph &G,
                                          uint64_t Seed);
/// FNV-1a over the bytes of \p Ts, folded into \p H.
uint64_t digest(const std::vector<dnnfusion::Tensor> &Ts,
                uint64_t H = 1469598103934665603ull);
/// Empty when \p A and \p B agree bit for bit (\p Tol == 0) or within
/// |a-b| <= Tol * (1 + |b|); otherwise a message naming the first
/// divergence.
std::string compareOutputs(const std::vector<dnnfusion::Tensor> &Got,
                           const std::vector<dnnfusion::Tensor> &Want,
                           float Tol);
/// True when \p M carries a fused attention or layernorm step (the one
/// documented tolerance relaxation).
bool hasFusedTransformerSteps(const dnnfusion::CompiledModel &M);

/// Step-kind class of a fusion block, by precedence attention, layernorm,
/// conv, gemm, other reference kernel, expression.
enum class BlockClass {
  Attention,
  LayerNorm,
  Conv,
  Gemm,
  OtherRef,
  Expression
};
inline constexpr int NumBlockClasses = 6;
BlockClass classifyBlock(const dnnfusion::CompiledBlock &B);

/// Operations the library has retried so far, every retry site
/// (support/Retry.h): retried-then-succeeded plus exhausted.
int64_t retriesSoFar();

/// Process high-water resident set size, MB (getrusage).
double peakRssMb();

/// Aggregate CPU time counters of the machine (/proc/stat), in ticks.
struct CpuTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
CpuTicks readCpuTicks();

/// Prints the run context lines ("# context ...") to stdout.
void printContext(const Options &O, unsigned SenderThreads);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
