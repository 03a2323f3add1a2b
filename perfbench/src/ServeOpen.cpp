//===- perfbench/src/ServeOpen.cpp - Open-loop serving --------------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve-open: seeded Poisson arrivals at a fixed ladder of rates into
// ModelRegistry::run with default RegistryOptions/BatcherOptions, serving
// the weight-stationary MLP (the same graph as bench/serving_loadgen.cpp's
// servingMlp). At most min(4, nproc) sender threads send; each request is
// timed from its due time, so a stalled sender's lateness lands in the
// latency of the requests behind it, and the generator's own lag is
// reported. The seed decides the arrival times and which of 64 seeded
// inputs each request carries.
//
// Every rung sends the same number of requests, sized so the whole ladder
// fits --seconds. Set-up (registry creation, load, and a fixed set of
// warm-up bursts that fill batch buckets 4 and 2) runs once before the
// ladder and ten times after it, once the memory high-water mark is read:
// every warm-up burst starts new threads, which glibc may give fresh
// malloc arenas, so set-ups inside the ladder would raise and scatter
// peak_rss_mb. The median of the eleven is reported.
//
// Correctness: every response must be bit-identical to the solo batch-1
// output for its input (one InferenceSession over the batch-1 model).
//
//===----------------------------------------------------------------------===//

#include "LayerTrace.h"
#include "Workloads.h"

#include "graph/GraphBuilder.h"
#include "serving/ModelRegistry.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace dnnfusion;

namespace perfbench {
namespace {

const char *const ModelName = "serving-mlp";
/// The rate ladder, requests per second, lowest first.
const double Rates[] = {100, 150, 200, 250, 300};
constexpr size_t NumRungs = sizeof(Rates) / sizeof(Rates[0]);
/// The latency limit a rung's tail must meet to count toward max_rate_rps.
constexpr double LatencyLimitMs = 50.0;
/// Set-ups of the untraced run, the one before the ladder included.
constexpr int SetUps = 11;
/// Warm-up bursts per burst width.
constexpr int WarmupBursts = 8;
constexpr int InputPool = 64;
/// Requests per rung even when --seconds is shorter (the gated p25 needs
/// 40).
constexpr size_t MinPerRung = 40;

/// The serving MLP, weight-stationary: requests arrive as rows
/// {Batch, 256}, are transposed into columns, and every dense layer is
/// W[Out,In] @ x[In, Batch], so batching reuses each weight element across
/// the batch. Weights are identical at every batch (same seed and order).
Graph servingMlp(int64_t Batch) {
  GraphBuilder B(42);
  NodeId X = B.input(Shape({Batch, 256}), "features");
  NodeId H = B.transpose(X, {1, 0});
  auto Dense = [&B](NodeId In, int64_t InF, int64_t OutF) {
    float Scale = 1.0f / std::sqrt(static_cast<float>(InF));
    NodeId W = B.weight(Shape({OutF, InF}), Scale);
    NodeId Bias = B.weight(Shape({OutF, 1}), Scale);
    return B.add(B.binary(OpKind::MatMul, W, In), Bias);
  };
  H = B.relu(Dense(H, 256, 1024));
  H = B.relu(Dense(H, 1024, 1024));
  H = Dense(H, 1024, 64);
  B.markOutput(B.softmax(B.transpose(H, {1, 0}), -1));
  return B.take();
}

struct Arrival {
  double DueS = 0.0; ///< Seconds after the rung starts.
  int Input = 0;     ///< Index into the input pool.
};

/// The seeded arrival schedule: one Poisson stream per rung, every rung
/// the same length.
std::vector<std::vector<Arrival>> schedule(uint64_t Seed, double Seconds) {
  double InvSum = 0.0;
  for (double Rate : Rates)
    InvSum += 1.0 / Rate;
  size_t PerRung =
      std::max(MinPerRung, static_cast<size_t>(Seconds / InvSum));
  Rng R(subSeed(Seed, 2));
  std::vector<std::vector<Arrival>> Rungs;
  for (double Rate : Rates) {
    std::vector<Arrival> A(PerRung);
    double T = 0.0;
    for (Arrival &X : A) {
      T += -std::log(1.0 - static_cast<double>(R.nextFloat())) / Rate;
      X.DueS = T;
      X.Input = static_cast<int>(R.nextBelow(InputPool));
    }
    Rungs.push_back(std::move(A));
  }
  return Rungs;
}

std::vector<std::vector<Tensor>> inputPool(uint64_t Seed) {
  Graph G = servingMlp(1);
  std::vector<std::vector<Tensor>> Pool;
  for (int I = 0; I < InputPool; ++I)
    Pool.push_back(
        makeInputs(G, subSeed(Seed, 200 + static_cast<uint64_t>(I))));
  return Pool;
}

/// One request as the sender saw it.
struct Outcome {
  double LatencyMs = 0.0; ///< Due time to completion.
  double LagMs = 0.0;     ///< Due time to send.
  bool Ok = false;
  uint64_t Digest = 0;
  int Input = 0;
};

/// One rung's measurement.
struct RungRun {
  double Rate = 0.0;
  std::vector<Outcome> Outcomes;
  double ElapsedS = 0.0;
  ServingStats Before, After;

  std::vector<double> latencies() const {
    std::vector<double> V;
    for (const Outcome &O : Outcomes)
      if (O.Ok)
        V.push_back(O.LatencyMs);
    return V;
  }
  size_t failures() const {
    size_t N = 0;
    for (const Outcome &O : Outcomes)
      N += !O.Ok;
    return N;
  }
  /// The tail percentile the limit applies to: p99 when the rung has the
  /// samples for it, else the highest supported of p98/p95/p90/p50.
  double tailPercentile() const {
    size_t N = Outcomes.size();
    for (double P : {99.0, 98.0, 95.0, 90.0})
      if (percentileSupported(N, P))
        return P;
    return 50.0;
  }
  /// Met: nothing failed, the tail is within the limit, and the last
  /// tenth of the rung is not slower than the limit (no growing backlog).
  bool met() const {
    if (failures() != 0)
      return false;
    std::vector<double> Lat = latencies();
    if (percentile(Lat, tailPercentile()) > LatencyLimitMs)
      return false;
    std::vector<double> Last(Lat.end() - static_cast<long>(Lat.size() / 10 + 1),
                             Lat.end());
    return median(Last) <= LatencyLimitMs;
  }
  double batchMean() const {
    uint64_t Batches = After.BatchesExecuted - Before.BatchesExecuted;
    return Batches ? static_cast<double>(After.Served - Before.Served) /
                         static_cast<double>(Batches)
                   : 0.0;
  }
};

double meanDeltaMs(const LatencyHistogram &A, const LatencyHistogram &B) {
  uint64_t N = B.Count - A.Count;
  return N ? (B.SumMicros - A.SumMicros) / static_cast<double>(N) / 1e3 : 0.0;
}

ServingStats statsOf(ModelRegistry &Reg) {
  Expected<std::shared_ptr<DynamicBatcher>> B = Reg.acquire(ModelName);
  return B.ok() ? (*B)->stats() : ServingStats();
}

/// Sends one rung's arrivals from \p Senders threads.
RungRun runRung(ModelRegistry &Reg, double Rate,
                const std::vector<Arrival> &Arrivals,
                const std::vector<std::vector<Tensor>> &Pool,
                unsigned Senders, Tracer &T, int64_t FirstRequest) {
  RungRun Run;
  Run.Rate = Rate;
  Run.Outcomes.resize(Arrivals.size());
  Run.Before = statsOf(Reg);
  std::atomic<size_t> Next{0};
  int32_t RungSpan = T.begin("bench.rung");
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> Threads;
  for (unsigned S = 0; S < Senders; ++S)
    Threads.emplace_back([&] {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Arrivals.size())
          return;
        const Arrival &A = Arrivals[I];
        Clock::time_point Due =
            Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(A.DueS));
        std::this_thread::sleep_until(Due);
        Clock::time_point Sent = Clock::now();
        int32_t Span = T.begin("serving.registry_run", RungSpan,
                               FirstRequest + static_cast<int64_t>(I));
        Expected<std::vector<Tensor>> Res =
            Reg.run(ModelName, Pool[static_cast<size_t>(A.Input)]);
        T.end(Span);
        Clock::time_point Done = Clock::now();
        Outcome &O = Run.Outcomes[I];
        O.LatencyMs = msBetween(Due, Done);
        O.LagMs = msBetween(Due, Sent);
        O.Input = A.Input;
        O.Ok = Res.ok();
        if (O.Ok)
          O.Digest = digest(*Res);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Run.ElapsedS = msBetween(Start, Clock::now()) / 1e3;
  T.end(RungSpan);
  Run.After = statsOf(Reg);
  return Run;
}

/// Registry creation, load, and the fixed warm-up. Returns set-up seconds.
double setUp(std::unique_ptr<ModelRegistry> &Reg,
             const std::vector<std::vector<Tensor>> &Pool, unsigned Senders,
             std::vector<Outcome> &Warm, Tracer &T, CompileTotals *Tot,
             Result &R) {
  Reg.reset();
  Clock::time_point Start = Clock::now();
  Reg = std::make_unique<ModelRegistry>();
  int32_t Span = T.begin("serving.registry_load");
  Status Loaded = Reg->load(ModelName, servingMlp);
  T.end(Span);
  if (!Loaded.ok()) {
    ++R.Attempted;
    R.fail(std::string("load failed: ") + Loaded.toString());
    return -1.0;
  }
  // A fixed warm-up, so set-up does the same work every time: bursts of
  // simultaneous requests from every sender, then from two, which fill
  // batch buckets 4 and 2 and so compile their variants.
  std::mutex WarmMutex;
  for (unsigned Width : {Senders, std::min(2u, Senders)})
    for (int Burst = 0; Burst < WarmupBursts; ++Burst) {
      Clock::time_point At = Clock::now() + std::chrono::milliseconds(1);
      std::vector<std::thread> Threads;
      for (unsigned S = 0; S < Width; ++S)
        Threads.emplace_back([&, S] {
          std::this_thread::sleep_until(At);
          Outcome O;
          O.Input = static_cast<int>(S);
          Expected<std::vector<Tensor>> Res = Reg->run(ModelName, Pool[S]);
          O.Ok = Res.ok();
          if (O.Ok)
            O.Digest = digest(*Res);
          std::lock_guard<std::mutex> Lock(WarmMutex);
          Warm.push_back(O);
        });
      for (std::thread &Th : Threads)
        Th.join();
    }
  double Seconds = msBetween(Start, Clock::now()) / 1e3;
  if (Tot) {
    ++Tot->Compiles;
    Tot->CompileMs += T.ms(Span);
    Expected<std::shared_ptr<DynamicBatcher>> B = Reg->acquire(ModelName);
    if (B.ok())
      Tot->countOutcome((*B)->model());
    replayCompilePhases(servingMlp(1), T, Span, *Tot);
  }
  return Seconds;
}

/// Checks every outcome against the solo batch-1 reference digests.
void checkOutcomes(const std::vector<Outcome> &Outcomes,
                   const std::vector<uint64_t> &Want, const char *What,
                   Result &R) {
  for (const Outcome &O : Outcomes) {
    ++R.Attempted;
    if (!O.Ok)
      R.fail(std::string(What) + ": request failed or was shed");
    else if (O.Digest != Want[static_cast<size_t>(O.Input)])
      R.fail(std::string(What) + ": response for input " +
             std::to_string(O.Input) +
             " is not bit-identical to the solo batch-1 output");
  }
}

std::vector<uint64_t> soloDigests(const std::vector<std::vector<Tensor>> &Pool,
                                  Result &R) {
  std::vector<uint64_t> Want(Pool.size(), 0);
  Expected<CompiledModel> M = compileModel(servingMlp(1));
  if (!M.ok()) {
    ++R.Attempted;
    R.fail("solo reference compile failed: " + M.status().toString());
    return Want;
  }
  InferenceSession Solo(std::move(*M));
  for (size_t I = 0; I < Pool.size(); ++I) {
    Expected<std::vector<Tensor>> Out = Solo.run(Pool[I]);
    if (Out.ok())
      Want[I] = digest(*Out);
  }
  return Want;
}

/// Index of the highest rung that met the limit with every lower rung
/// meeting it too; -1 when the lowest rung missed.
int highestMet(const std::vector<RungRun> &Ladder) {
  int Best = -1;
  for (size_t I = 0; I < Ladder.size() && Ladder[I].met(); ++I)
    Best = static_cast<int>(I);
  return Best;
}

void ladderRows(const std::vector<RungRun> &Ladder, Result &R,
                const char *Tag) {
  for (const RungRun &Run : Ladder) {
    std::vector<double> Lat = Run.latencies();
    std::vector<double> Lag;
    for (const Outcome &O : Run.Outcomes)
      Lag.push_back(O.LagMs);
    double Tail = Run.tailPercentile();
    char P90[48] = "";
    if (Tail > 90)
      std::snprintf(P90, sizeof(P90), "  p90 %.3f ms", percentile(Lat, 90));
    R.row("%srung %3.0f rps: n=%zu achieved %.1f rps  p50 %.3f ms%s  p%.0f "
          "%.3f ms  lag p%.0f %.3f ms  batch mean %.2f  failed %zu  %s",
          Tag, Run.Rate, Run.Outcomes.size(),
          static_cast<double>(Lat.size()) / Run.ElapsedS, median(Lat), P90,
          Tail, percentile(Lat, Tail), Tail, percentile(Lag, Tail),
          Run.batchMean(), Run.failures(), Run.met() ? "met" : "missed");
  }
}

std::vector<RungRun> runLadder(ModelRegistry &Reg,
                               const std::vector<std::vector<Arrival>> &Sched,
                               const std::vector<std::vector<Tensor>> &Pool,
                               unsigned Senders, Tracer &T) {
  std::vector<RungRun> Ladder;
  int64_t Request = 0;
  for (size_t I = 0; I < NumRungs; ++I) {
    Ladder.push_back(
        runRung(Reg, Rates[I], Sched[I], Pool, Senders, T, Request));
    Request += static_cast<int64_t>(Sched[I].size());
  }
  return Ladder;
}

} // namespace

unsigned serveOpenSenders() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, N));
}

void dumpServeOpenInputs(const Options &O) {
  std::vector<std::vector<Arrival>> Sched = schedule(O.Seed, O.Seconds);
  uint64_t H = 1469598103934665603ull;
  size_t Total = 0;
  for (const std::vector<Arrival> &Rung : Sched)
    for (const Arrival &A : Rung) {
      for (uint64_t V : {static_cast<uint64_t>(std::llround(A.DueS * 1e9)),
                         static_cast<uint64_t>(A.Input)}) {
        H ^= V;
        H *= 1099511628211ull;
      }
      ++Total;
    }
  std::printf("schedule %zu arrivals %016llx\n", Total,
              static_cast<unsigned long long>(H));
  uint64_t D = 1469598103934665603ull;
  for (const std::vector<Tensor> &In : inputPool(O.Seed))
    D = digest(In, D);
  std::printf("input pool %d %016llx\n", InputPool,
              static_cast<unsigned long long>(D));
}

Result runServeOpen(const Options &O) {
  Result R;
  Tracer T(O.Trace);
  const unsigned Senders = serveOpenSenders();
  std::vector<std::vector<Tensor>> Pool = inputPool(O.Seed);
  std::unique_ptr<ModelRegistry> Reg;
  std::vector<Outcome> Warm;
  CompileTotals Tot;
  int64_t RetriesBefore = retriesSoFar();

  double First =
      setUp(Reg, Pool, Senders, Warm, T, O.Trace ? &Tot : nullptr, R);
  if (First < 0)
    return R;

  std::vector<Outcome> All;
  auto Collect = [&](const std::vector<RungRun> &Ladder) {
    for (const RungRun &Run : Ladder)
      All.insert(All.end(), Run.Outcomes.begin(), Run.Outcomes.end());
  };

  if (!O.Trace) {
    std::vector<std::vector<Arrival>> Sched = schedule(O.Seed, O.Seconds);
    std::vector<RungRun> Ladder = runLadder(*Reg, Sched, Pool, Senders, T);
    // Read before the repeated set-ups below allocate anything.
    R.gated("peak_rss_mb", peakRssMb(), 1);
    Collect(Ladder);
    std::vector<double> Lowest = Ladder.front().latencies();
    R.gated("latency_ms", percentile(Lowest, GatedLatencyPercentile),
            static_cast<int64_t>(Lowest.size()));
    R.row("metric latency_ms_p25 = %.4f ms (gated as latency_ms; lowest "
          "rung, n=%zu)",
          percentile(Lowest, GatedLatencyPercentile), Lowest.size());
    R.row("metric latency_ms_p50 = %.4f ms (lowest rung, n=%zu)",
          median(Lowest), Lowest.size());
    if (percentileSupported(Lowest.size(), 99.0))
      R.row("metric latency_ms_p99 = %.4f ms (lowest rung, n=%zu)",
            percentile(Lowest, 99.0), Lowest.size());
    else
      R.row("metric latency_ms_p99 not reported: %zu samples at the lowest "
            "rung, p99 needs 1000",
            Lowest.size());
    int Best = highestMet(Ladder);
    R.row("metric max_rate_rps = %.0f req/s (limit: tail <= %.0f ms, no "
          "growing backlog, no failures; ladder %zu rungs x %zu requests)",
          Best >= 0 ? Rates[Best] : 0.0, LatencyLimitMs, NumRungs,
          Sched.front().size());
    ladderRows(Ladder, R, "");

    // Set up again for the set-up median.
    std::vector<double> SetupS = {First};
    for (int I = 1; I < SetUps; ++I) {
      double S = setUp(Reg, Pool, Senders, Warm, T, nullptr, R);
      if (S < 0)
        return R;
      SetupS.push_back(S);
    }
    R.gated("setup_s", median(SetupS), static_cast<int64_t>(SetupS.size()));
    setupRow(R, SetupS);
    R.row("batch variants compiled by the last set-up's warm-up: %llu",
          static_cast<unsigned long long>(statsOf(*Reg).VariantCompiles));
  } else {
    // Untraced then traced, each over half the time.
    std::vector<std::vector<Arrival>> Sched = schedule(O.Seed, O.Seconds / 2);
    Tracer Off(false);
    std::vector<RungRun> Untraced = runLadder(*Reg, Sched, Pool, Senders, Off);
    std::vector<RungRun> Traced = runLadder(*Reg, Sched, Pool, Senders, T);
    Collect(Untraced);
    Collect(Traced);
    ladderRows(Untraced, R, "untraced ");
    ladderRows(Traced, R, "traced ");

    const RungRun &Low = Traced.front();
    int Best = std::max(0, highestMet(Traced));
    const RungRun &High = Traced[static_cast<size_t>(Best)];
    double Queue = meanDeltaMs(Low.Before.QueueMicros, Low.After.QueueMicros);
    double Total = meanDeltaMs(Low.Before.TotalMicros, Low.After.TotalMicros);
    double Exec = meanDeltaMs(Low.Before.Sessions.ExecMicros,
                              Low.After.Sessions.ExecMicros);
    R.layer("serving.queue_wait_ms", Queue,
            static_cast<int64_t>(Low.Outcomes.size()));
    R.layer("serving.other_ms", Total - Queue - Exec,
            static_cast<int64_t>(Low.Outcomes.size()));
    R.layer("serving.exec_ms",
            meanDeltaMs(High.Before.Sessions.ExecMicros,
                        High.After.Sessions.ExecMicros),
            static_cast<int64_t>(High.After.BatchesExecuted -
                                 High.Before.BatchesExecuted));
    R.layer("serving.batch_size_mean", High.batchMean(),
            static_cast<int64_t>(High.Outcomes.size()));
    R.row("traced lowest rung: total %.3f ms = queue %.3f + exec %.3f + "
          "other %.3f (means from the batcher's exact sums); highest met "
          "rung %.0f rps: batch mean %.2f, exec %.3f ms",
          Total, Queue, Exec, Total - Queue - Exec, High.Rate,
          High.batchMean(),
          meanDeltaMs(High.Before.Sessions.ExecMicros,
                      High.After.Sessions.ExecMicros));

    const ServingStats &First = Traced.front().Before;
    const ServingStats &Last = Traced.back().After;
    uint64_t Submitted = Last.Submitted - First.Submitted;
    uint64_t Shed = (Last.ShedQueueFull - First.ShedQueueFull) +
                    (Last.ShedDeadline - First.ShedDeadline) +
                    (Last.FailedExecution - First.FailedExecution) +
                    (Last.DeadlineMidExecution - First.DeadlineMidExecution) +
                    (Last.RejectedValidation - First.RejectedValidation);
    R.layer("serving.served_ratio",
            Submitted ? static_cast<double>(Last.Served - First.Served) /
                            static_cast<double>(Submitted)
                      : 0.0);
    R.layer("serving.shed", static_cast<double>(Shed));
    R.layer("serving.degraded",
            static_cast<double>(Last.DegradedRequests -
                                First.DegradedRequests));

    std::vector<double> Lag;
    for (int I = 0; I <= Best; ++I)
      for (const Outcome &Out : Traced[static_cast<size_t>(I)].Outcomes)
        Lag.push_back(Out.LagMs);
    bool LagP99 = percentileSupported(Lag.size(), 99.0);
    R.layer("serving.generator_lag_ms_p99",
            LagP99 ? percentile(Lag, 99.0)
                   : *std::max_element(Lag.begin(), Lag.end()),
            static_cast<int64_t>(Lag.size()));
    if (!LagP99)
      R.row("serving.generator_lag_ms_p99 is the maximum: %zu samples, p99 "
            "needs 1000",
            Lag.size());
    double UntracedP50 = median(Untraced.front().latencies());
    R.layer("bench.trace_overhead_frac",
            median(Low.latencies()) / UntracedP50 - 1.0,
            static_cast<int64_t>(Low.Outcomes.size()));

    // Kernel time of the serving model: one per-block-timed batch-1
    // execution per pool input, on the registry's own compiled model.
    Expected<std::shared_ptr<DynamicBatcher>> B = Reg->acquire(ModelName);
    if (B.ok()) {
      const CompiledModel &M = (*B)->model();
      ExecutionContext Ctx(M);
      ExecRollup Roll;
      for (size_t I = 0; I < Pool.size(); ++I) {
        ExecutionStats Stats;
        int32_t Span = T.begin("runtime.exec_context", -1,
                               static_cast<int64_t>(I));
        Expected<std::vector<Tensor>> Out = Ctx.tryRun(Pool[I], &Stats, true);
        T.end(Span);
        Outcome Oc;
        Oc.Input = static_cast<int>(I);
        Oc.Ok = Out.ok();
        if (Oc.Ok) {
          Oc.Digest = digest(*Out);
          Roll.add(M, Stats);
        }
        All.push_back(Oc);
      }
      Roll.report(R, static_cast<double>(Roll.Runs));
    }
    Tot.report(R, 1.0);
    Tot.row(R, "one set-up: ModelRegistry::load of the batch-1 MLP", 1.0);
    R.layer("support.retries",
            static_cast<double>(retriesSoFar() - RetriesBefore));
  }

  Reg.reset();
  All.insert(All.end(), Warm.begin(), Warm.end());
  checkOutcomes(All, soloDigests(Pool, R), "serving-mlp", R);
  T.save(O);
  return R;
}

} // namespace perfbench
