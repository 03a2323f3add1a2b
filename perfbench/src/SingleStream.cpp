//===- perfbench/src/SingleStream.cpp - One caller, closed loop -----------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// single-stream: one caller in a closed loop at batch 1, round-robin over
// EfficientNet-B0, YOLO-V4, U-Net, Mask R-CNN, GPT-2 and TinyBERT through
// InferenceSession::run. The seed decides the round-robin order and every
// model's input. Set-up (graph build, compileModel, session creation, two
// warm-up runs per model) runs once before the measured window and again
// at the end of each of its equal slices, one per two seconds, so the
// set-up samples come from the same stretch of time as the latency
// samples; the median of all of them is reported, and each model's cold
// compile is the median of its compiles.
//
// Correctness: each model's first response must match the unfused per-op
// run (sequential schedule) of the rewritten graph exactly — within 2e-3
// for models whose compiled form has fused attention/layernorm steps —
// and the per-op run of the unrewritten graph within 2e-3; every later
// response must be bit-identical to the first, across set-ups too.
//
//===----------------------------------------------------------------------===//

#include "LayerTrace.h"
#include "Workloads.h"

#include "models/ModelZoo.h"
#include "runtime/InferenceSession.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <tuple>

using namespace dnnfusion;

namespace perfbench {
namespace {

const char *const ModelNames[] = {"EfficientNet-B0", "YOLO-V4",  "U-Net",
                                  "Mask R-CNN",      "GPT-2",    "TinyBERT"};
constexpr size_t NumModels = sizeof(ModelNames) / sizeof(ModelNames[0]);
/// Seconds of the measured window per set-up repeated inside it.
constexpr double SecondsPerSetUp = 2.0;
/// Set-ups repeated inside the window even when --seconds is shorter.
constexpr int MinWindowSetUps = 4;
constexpr int WarmupRuns = 2;
/// Rounds measured even when --seconds is shorter (the gated p25 needs 40
/// samples).
constexpr int MinRounds = 40;

/// The seeded round-robin order (a permutation of ModelNames indices).
std::vector<size_t> modelOrder(uint64_t Seed) {
  std::vector<size_t> Order(NumModels);
  for (size_t I = 0; I < NumModels; ++I)
    Order[I] = I;
  Rng R(subSeed(Seed, 1));
  for (size_t I = NumModels - 1; I > 0; --I)
    std::swap(Order[I], Order[R.nextBelow(I + 1)]);
  return Order;
}

uint64_t inputSeed(uint64_t Seed, size_t Model) {
  return subSeed(Seed, 100 + Model);
}

/// One served model.
struct Served {
  size_t Model = 0;
  std::unique_ptr<InferenceSession> Session;
  std::vector<Tensor> Inputs;
  /// The first response; every later one must equal it bit for bit.
  std::vector<Tensor> First;
  std::vector<double> LatencyMs;
  std::vector<double> CompileMs; ///< One cold compile per set-up.
};

bool sameBits(const std::vector<Tensor> &A, const std::vector<Tensor> &B) {
  return compareOutputs(A, B, 0.0f).empty();
}

/// One run, timed around InferenceSession::run alone — inside a
/// runtime.session_run span (child of \p Parent) when \p T is enabled,
/// whose id lands in \p SpanOut. Counts the run and, after the clock has
/// stopped, checks it against the first response. Returns the latency
/// (ms), or a negative value on failure.
double timedRun(Served &S, Result &R, Tracer &T, int32_t Parent = -1,
                int64_t Request = -1, int32_t *SpanOut = nullptr) {
  ++R.Attempted;
  int32_t Span = T.begin("runtime.session_run", Parent, Request);
  Clock::time_point T0 = Clock::now();
  Expected<std::vector<Tensor>> Out = S.Session->run(S.Inputs);
  double Ms = msBetween(T0, Clock::now());
  T.end(Span);
  if (SpanOut)
    *SpanOut = Span;
  if (!Out.ok()) {
    R.fail(std::string(ModelNames[S.Model]) + ": " + Out.status().toString());
    return -1.0;
  }
  if (!sameBits(*Out, S.First)) {
    R.fail(std::string(ModelNames[S.Model]) +
           ": response differs from the model's first response: " +
           compareOutputs(*Out, S.First, 0.0f));
    return -1.0;
  }
  return Ms;
}

/// Builds, compiles and serves every model, then warms up. Returns the
/// set-up seconds, input generation excluded. With tracing, each compile
/// is followed by an (untimed-for-setup) phase replay.
double setUp(const std::vector<size_t> &Order, uint64_t Seed,
             std::vector<Served> &Models, Tracer &T, CompileTotals *Tot,
             Result &R) {
  // Keep only the samples and what the comparison needs from the previous
  // set-up, so the process never holds two sets of compiled models.
  std::vector<std::vector<Tensor>> PrevFirst;
  std::vector<std::vector<double>> PrevCompileMs, PrevLatencyMs;
  for (Served &S : Models) {
    PrevFirst.push_back(std::move(S.First));
    PrevCompileMs.push_back(std::move(S.CompileMs));
    PrevLatencyMs.push_back(std::move(S.LatencyMs));
  }
  Models.clear();

  double Excluded = 0.0;
  Clock::time_point Start = Clock::now();
  std::vector<Served> Fresh(NumModels);
  for (size_t Pos = 0; Pos < NumModels; ++Pos) {
    Served &S = Fresh[Pos];
    S.Model = Order[Pos];
    Graph G = buildModel(ModelNames[S.Model]);
    Clock::time_point GenStart = Clock::now();
    S.Inputs = makeInputs(G, inputSeed(Seed, S.Model));
    Graph Replay = T.enabled() ? G : Graph();
    Excluded += msBetween(GenStart, Clock::now());

    int32_t Span = T.begin("runtime.compileModel");
    Clock::time_point C0 = Clock::now();
    Expected<CompiledModel> M = compileModel(std::move(G));
    S.CompileMs.push_back(msBetween(C0, Clock::now()));
    T.end(Span);
    if (!M.ok()) {
      ++R.Attempted;
      R.fail(std::string(ModelNames[S.Model]) +
             ": compile failed: " + M.status().toString());
      return -1.0;
    }
    if (Tot) {
      Clock::time_point ReplayStart = Clock::now();
      ++Tot->Compiles;
      Tot->CompileMs += T.ms(Span);
      Tot->countOutcome(*M);
      replayCompilePhases(std::move(Replay), T, Span, *Tot);
      Excluded += msBetween(ReplayStart, Clock::now());
    }
    S.Session = std::make_unique<InferenceSession>(std::move(*M));
  }
  for (Served &S : Fresh)
    for (int W = 0; W < WarmupRuns; ++W) {
      ++R.Attempted;
      Expected<std::vector<Tensor>> Out = S.Session->run(S.Inputs);
      if (!Out.ok()) {
        R.fail(std::string(ModelNames[S.Model]) +
               ": warm-up run failed: " + Out.status().toString());
        return -1.0;
      }
      if (S.First.empty())
        S.First = std::move(*Out);
      else if (!sameBits(*Out, S.First))
        R.fail(std::string(ModelNames[S.Model]) +
               ": warm-up responses differ: " +
               compareOutputs(*Out, S.First, 0.0f));
    }
  double Seconds = msBetween(Start, Clock::now()) / 1e3 - Excluded / 1e3;

  // A re-compile must serve the same program: its first response must be
  // bit-identical to the previous set-up's. The samples carry over.
  if (!PrevFirst.empty())
    for (size_t Pos = 0; Pos < NumModels; ++Pos) {
      ++R.Attempted;
      if (!sameBits(Fresh[Pos].First, PrevFirst[Pos]))
        R.fail(std::string(ModelNames[Fresh[Pos].Model]) +
               ": a repeated set-up changed the response: " +
               compareOutputs(Fresh[Pos].First, PrevFirst[Pos], 0.0f));
      Fresh[Pos].CompileMs.insert(Fresh[Pos].CompileMs.begin(),
                                  PrevCompileMs[Pos].begin(),
                                  PrevCompileMs[Pos].end());
      Fresh[Pos].LatencyMs = std::move(PrevLatencyMs[Pos]);
    }
  Models = std::move(Fresh);
  return Seconds;
}

/// \p Seconds after \p From.
Clock::time_point after(Clock::time_point From, double Seconds) {
  return From + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Seconds));
}

/// Untraced closed loop until \p End (and at least \p AtLeast rounds).
int measureRounds(std::vector<Served> &Models, Clock::time_point End,
                  int AtLeast, Result &R) {
  Tracer Off(false);
  int Rounds = 0;
  while (Rounds < AtLeast || Clock::now() < End) {
    for (Served &S : Models) {
      double Ms = timedRun(S, R, Off);
      if (Ms >= 0)
        S.LatencyMs.push_back(Ms);
    }
    ++Rounds;
  }
  return Rounds;
}

/// The untraced window: \p Seconds of rounds cut into equal slices, each
/// followed by a fresh set-up whose time is appended to \p SetupS. Returns
/// the rounds measured (at least MinRounds), or -1 when a set-up failed.
int measureWindow(const std::vector<size_t> &Order, uint64_t Seed,
                  std::vector<Served> &Models, double Seconds,
                  std::vector<double> &SetupS, Result &R) {
  const int Slices =
      std::max(MinWindowSetUps,
               static_cast<int>(std::lround(Seconds / SecondsPerSetUp)));
  Tracer Off(false);
  Clock::time_point Start = Clock::now();
  int Rounds = 0;
  for (int Slice = 1; Slice <= Slices; ++Slice) {
    Rounds += measureRounds(Models, after(Start, Seconds * Slice / Slices),
                            Slice == Slices ? MinRounds - Rounds : 0, R);
    double Setup = setUp(Order, Seed, Models, Off, nullptr, R);
    if (Setup < 0)
      return -1;
    SetupS.push_back(Setup);
  }
  return Rounds;
}

/// Runs \p Name compiled under \p Opt on the sequential schedule.
Expected<std::vector<Tensor>> referenceRun(const char *Name,
                                           const CompileOptions &Opt,
                                           const std::vector<Tensor> &In) {
  Expected<CompiledModel> M = compileModel(buildModel(Name), Opt);
  if (!M.ok())
    return M.status();
  ExecutionOptions Sequential;
  Sequential.Mode = ExecutionOptions::Schedule::Sequential;
  ExecutionContext Ctx(*M, Sequential);
  return Ctx.tryRun(In);
}

/// Checks every model's first response against the unfused per-op
/// references. Fusion, scheduling and every engine path are bit-exact by
/// the library's guarantee, so against the per-op run of the *rewritten*
/// graph the response must match exactly (2e-3 only where the compiled
/// model has fused attention/layernorm steps, the one documented
/// relaxation). Graph rewriting itself reassociates float arithmetic, so
/// against the fully unoptimized graph (rewriting off too) the documented
/// 2e-3 tolerance applies.
void checkReference(const std::vector<Served> &Models, Result &R) {
  CompileOptions Unfused;
  Unfused.EnableFusion = false;
  Unfused.EnableOtherOpts = false;
  CompileOptions Unoptimized = Unfused;
  Unoptimized.EnableGraphRewriting = false;
  for (const Served &S : Models) {
    const char *Name = ModelNames[S.Model];
    float FusedTol =
        hasFusedTransformerSteps(S.Session->model()) ? 2e-3f : 0.0f;
    for (auto [Opt, Tol, What] :
         {std::make_tuple(&Unfused, FusedTol, "unfused per-op run of the "
                                              "rewritten graph"),
          std::make_tuple(&Unoptimized, 2e-3f, "unoptimized per-op run")}) {
      ++R.Attempted;
      Expected<std::vector<Tensor>> Want = referenceRun(Name, *Opt, S.Inputs);
      if (!Want.ok()) {
        R.fail(std::string(Name) + ": reference failed: " +
               Want.status().toString());
        continue;
      }
      std::string Diff = compareOutputs(S.First, *Want, Tol);
      if (!Diff.empty())
        R.fail(std::string(Name) + ": first response diverges from the " +
               What + ": " + Diff);
    }
  }
}

/// Per-model medians (ms) of the latencies recorded so far.
std::vector<double> modelMedians(const std::vector<Served> &Models) {
  std::vector<double> Meds;
  for (const Served &S : Models)
    Meds.push_back(median(S.LatencyMs));
  return Meds;
}

/// Traced closed loop: per request, a session.run span (with the
/// session's own ExecMicros delta) and a per-block-timed
/// ExecutionContext::tryRun on the session's model.
void measureTraced(std::vector<Served> &Models, double Seconds, Tracer &T,
                   Result &R, double UntracedP50) {
  std::vector<std::unique_ptr<ExecutionContext>> Ctx;
  for (Served &S : Models) {
    Ctx.push_back(std::make_unique<ExecutionContext>(S.Session->model()));
    S.LatencyMs.clear();
  }
  ExecRollup Exec;
  double ExecMs = 0, RunMs = 0;
  int64_t Request = 0;
  Clock::time_point End = after(Clock::now(), Seconds);
  int Rounds = 0;
  while (Rounds < MinRounds || Clock::now() < End) {
    int32_t RoundSpan = T.begin("bench.round");
    for (size_t Pos = 0; Pos < Models.size(); ++Pos) {
      Served &S = Models[Pos];
      double Before = S.Session->metrics().ExecMicros.SumMicros;
      int32_t Span = -1;
      double Ms = timedRun(S, R, T, RoundSpan, Request, &Span);
      double After = S.Session->metrics().ExecMicros.SumMicros;
      if (Ms >= 0) {
        // The span, not Ms, so the traced latency includes the span
        // bookkeeping; the span holds InferenceSession::run alone.
        S.LatencyMs.push_back(T.ms(Span));
        RunMs += T.ms(Span);
        ExecMs += (After - Before) / 1e3;
      }

      ++R.Attempted;
      ExecutionStats Stats;
      Span = T.begin("runtime.exec_context", RoundSpan, Request);
      Expected<std::vector<Tensor>> Out =
          Ctx[Pos]->tryRun(S.Inputs, &Stats, /*PerBlockTiming=*/true);
      T.end(Span);
      ++Request;
      if (!Out.ok() || !sameBits(*Out, S.First)) {
        R.fail(std::string(ModelNames[S.Model]) +
               ": per-block-timed run differs from the first response");
        continue;
      }
      Exec.add(S.Session->model(), Stats);
    }
    T.end(RoundSpan);
    ++Rounds;
  }

  const double N = Rounds;
  Exec.report(R, N);
  R.layer("runtime.exec_ms", ExecMs / N, Rounds);
  R.layer("runtime.session_overhead_ms", (RunMs - ExecMs) / N, Rounds);

  double TracedP50 = geomean(modelMedians(Models));
  R.layer("bench.trace_overhead_frac", TracedP50 / UntracedP50 - 1.0,
          Rounds);
  R.row("traced: %d rounds, session.run geomean p50 %.4f ms vs untraced "
        "%.4f ms; per round: session.run %.3f ms = exec %.3f ms + session "
        "overhead %.3f ms; per-block-timed tryRun wall %.3f ms, block sum "
        "%.3f ms",
        Rounds, TracedP50, UntracedP50, RunMs / N, ExecMs / N,
        (RunMs - ExecMs) / N, Exec.WallMs / N, Exec.BlockSumMs / N);
}

} // namespace

void dumpSingleStreamInputs(const Options &O) {
  std::vector<size_t> Order = modelOrder(O.Seed);
  std::printf("order");
  for (size_t I : Order)
    std::printf(" %s", ModelNames[I]);
  std::printf("\n");
  for (size_t I : Order) {
    Graph G = buildModel(ModelNames[I]);
    std::printf("input %s %016llx\n", ModelNames[I],
                static_cast<unsigned long long>(
                    digest(makeInputs(G, inputSeed(O.Seed, I)))));
  }
}

Result runSingleStream(const Options &O) {
  Result R;
  Tracer T(O.Trace);
  std::vector<size_t> Order = modelOrder(O.Seed);
  std::vector<Served> Models;
  CompileTotals Tot;
  int64_t RetriesBefore = retriesSoFar();

  double First = setUp(Order, O.Seed, Models, T, O.Trace ? &Tot : nullptr, R);
  if (First < 0)
    return R;

  if (!O.Trace) {
    std::vector<double> SetupS = {First};
    int Rounds = measureWindow(Order, O.Seed, Models, O.Seconds, SetupS, R);
    if (Rounds < 0)
      return R;
    R.gated("peak_rss_mb", peakRssMb(), 1);
    std::vector<double> Gated, P90;
    double RoundSum = 0;
    for (const Served &S : Models) {
      Gated.push_back(percentile(S.LatencyMs, GatedLatencyPercentile));
      P90.push_back(percentile(S.LatencyMs, 90.0));
      for (double Ms : S.LatencyMs)
        RoundSum += Ms;
    }
    R.gated("latency_ms", geomean(Gated),
            static_cast<int64_t>(Rounds) * static_cast<int64_t>(NumModels));
    R.row("metric latency_ms_p25 = %.4f ms (gated as latency_ms; geomean of 6 "
          "model p25s, n=%d per model)",
          geomean(Gated), Rounds);
    R.row("metric latency_ms_p50 = %.4f ms (geomean of 6 model p50s, n=%d "
          "per model)",
          geomean(modelMedians(Models)), Rounds);
    if (percentileSupported(static_cast<size_t>(Rounds), 90.0))
      R.row("metric latency_ms_p90 = %.4f ms (geomean of 6 model p90s, "
            "n=%d per model)",
            geomean(P90), Rounds);
    else
      R.row("metric latency_ms_p90 not reported: %d samples per model, "
            "p90 needs 100",
            Rounds);
    R.row("rounds %d, round mean %.3f ms", Rounds, RoundSum / Rounds);
    for (const Served &S : Models)
      R.row("model %-16s p50 %9.4f ms  p90 %9s ms  n=%zu", ModelNames[S.Model],
            median(S.LatencyMs),
            percentileSupported(S.LatencyMs.size(), 90.0)
                ? std::to_string(percentile(S.LatencyMs, 90.0)).c_str()
                : "n/a",
            S.LatencyMs.size());

    std::vector<double> Cold;
    for (const Served &S : Models) {
      Cold.push_back(median(S.CompileMs));
      R.row("model %-16s cold compile %.3f ms (n=%zu)", ModelNames[S.Model],
            Cold.back(), S.CompileMs.size());
    }
    R.row("metric compile_cold_ms = %.4f ms (geomean of 6 per-model medians "
          "over %zu set-ups)",
          geomean(Cold), SetupS.size());
    R.gated("setup_s", median(SetupS), static_cast<int64_t>(SetupS.size()));
    setupRow(R, SetupS);
  } else {
    measureRounds(Models, after(Clock::now(), O.Seconds / 2), MinRounds, R);
    double UntracedP50 = geomean(modelMedians(Models));
    measureTraced(Models, O.Seconds / 2, T, R, UntracedP50);
    Tot.report(R, 1.0);
    Tot.row(R, "one set-up, six models", 1.0);
    R.layer("support.retries",
            static_cast<double>(retriesSoFar() - RetriesBefore));
  }

  checkReference(Models, R);
  T.save(O);
  return R;
}

} // namespace perfbench
