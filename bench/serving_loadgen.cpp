//===- bench/serving_loadgen.cpp - Closed-loop serving load bench ---------------===//
//
// The serving front end under load: closed-loop clients (each submits its
// next request the moment the previous one completes) hammer one
// DynamicBatcher at increasing client counts, batching on vs off, and the
// bench reports served QPS and p50/p99 latency per point — what coalescing
// the backlog buys under load, and what it costs a lone client. A
// saturation-storm section drives a deliberately under-provisioned queue
// and proves every shed request surfaced as a typed Status (shed counters
// reconcile exactly with client-observed rejections; any abort kills the
// binary and fails CI).
//
// `--json <path>` emits BENCH_serving.json. `--quick` shortens every
// measurement window (the CI smoke setting: crash/guard failures only,
// timing numbers are not inspected). Exit code is the correctness guard:
// batched outputs must stay bit-identical to solo execution, and request
// accounting must balance.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "serving/ModelRegistry.h"
#include "support/FaultInjection.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

using namespace dnnfusion;
using namespace dnnfusion::bench;

namespace {

/// One measured point of the closed loop.
struct LoadPoint {
  int Clients = 0;
  bool Batched = false;
  double DurationSec = 0;
  uint64_t Served = 0;
  uint64_t Shed = 0;
  double Qps = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double MeanBatch = 0; ///< Requests per dispatched execution.
  uint64_t VariantCompiles = 0; ///< Batch variants compiled in the point.
};

/// Drives \p Clients closed-loop client threads against \p Batcher for
/// \p Seconds. Every client loops: submit, check, submit again. Counters
/// come from the batcher's own stats delta so queueing time is included in
/// the reported percentiles.
LoadPoint runClosedLoop(DynamicBatcher &Batcher, int Clients, double Seconds,
                        bool Batched, int *Guard) {
  ServingStats Before = Batcher.stats();
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> ClientServed{0}, ClientShed{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      // Distinct per-client inputs so batches mix real traffic.
      Rng R(static_cast<uint64_t>(100 + C));
      std::vector<Tensor> In;
      for (const TensorSpec &Spec : Batcher.signature().Inputs) {
        Tensor T(Spec.Sh, Spec.Ty);
        fillRandom(T, R, 0.2f, 1.0f);
        In.push_back(std::move(T));
      }
      while (!Stop.load(std::memory_order_relaxed)) {
        Expected<std::vector<Tensor>> Out = Batcher.submit(In);
        if (Out.ok()) {
          ++ClientServed;
        } else {
          // Typed shed (queue full under saturation) — never an abort.
          ++ClientShed;
        }
      }
    });
  WallTimer T;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(Seconds * 1000)));
  Stop = true;
  for (std::thread &Th : Threads)
    Th.join();
  double Elapsed = T.millis() / 1000.0;

  ServingStats After = Batcher.stats();
  LoadPoint P;
  P.Clients = Clients;
  P.Batched = Batched;
  P.DurationSec = Elapsed;
  P.Served = After.Served - Before.Served;
  // Everything a client saw resolve without outputs: admission sheds plus
  // the typed execution failures chaos mode provokes (zero otherwise).
  P.Shed = (After.ShedQueueFull - Before.ShedQueueFull) +
           (After.ShedDeadline - Before.ShedDeadline) +
           (After.FailedExecution - Before.FailedExecution) +
           (After.DeadlineMidExecution - Before.DeadlineMidExecution);
  P.Qps = Elapsed > 0 ? static_cast<double>(P.Served) / Elapsed : 0;
  // Percentiles of this point alone: the batcher's histogram spans its
  // whole life, warm-up and earlier points included.
  LatencyHistogram Latency = After.TotalMicros;
  for (size_t I = 0; I < Latency.Buckets.size(); ++I)
    Latency.Buckets[I] -= Before.TotalMicros.Buckets[I];
  Latency.Count -= Before.TotalMicros.Count;
  P.P50Ms = Latency.percentile(50.0) / 1000.0;
  P.P99Ms = Latency.percentile(99.0) / 1000.0;
  uint64_t Batches = After.BatchesExecuted - Before.BatchesExecuted;
  P.MeanBatch =
      Batches > 0 ? static_cast<double>(P.Served) / static_cast<double>(Batches)
                  : 0;
  P.VariantCompiles = After.VariantCompiles - Before.VariantCompiles;
  // Accounting must balance: what clients observed is what the front end
  // counted. (Served can race one in-flight request past the stop flag;
  // tolerate off-by-Clients, nothing more.)
  uint64_t ClientTotal = ClientServed + ClientShed;
  uint64_t FrontEndTotal = P.Served + P.Shed;
  uint64_t Diff = ClientTotal > FrontEndTotal ? ClientTotal - FrontEndTotal
                                              : FrontEndTotal - ClientTotal;
  if (Diff > static_cast<uint64_t>(Clients)) {
    std::fprintf(stderr,
                 "ACCOUNTING GUARD: clients saw %llu requests, front end "
                 "counted %llu\n",
                 static_cast<unsigned long long>(ClientTotal),
                 static_cast<unsigned long long>(FrontEndTotal));
    *Guard = 1;
  }
  return P;
}

/// Bit-identity guard: one batched pass over the factory must reproduce
/// solo batch-1 outputs exactly (the serving layer's core promise).
int checkBatchedBitIdentity(DynamicBatcher::GraphFactory Factory,
                            const char *Name) {
  CompiledModel Solo = cantFail(compileModel(Factory(1)));
  InferenceSession SoloSession(std::move(Solo));
  BatcherOptions O;
  // An explicit window: the guard needs all five requests coalesced into
  // one 4 + 1 dispatch, which backlog alone does not guarantee.
  O.MaxQueueDelayMicros = 50000;
  std::unique_ptr<DynamicBatcher> B =
      cantFail(DynamicBatcher::create(Factory, CompileOptions(), O));
  const int N = 5; // Greedy 4 + 1: exercises a real batched execution.
  std::vector<std::vector<Tensor>> In(N);
  std::vector<std::vector<Tensor>> Want(N);
  for (int R = 0; R < N; ++R) {
    Rng Rand(static_cast<uint64_t>(500 + R));
    for (const TensorSpec &Spec : B->signature().Inputs) {
      Tensor T(Spec.Sh, Spec.Ty);
      fillRandom(T, Rand, 0.2f, 1.0f);
      In[static_cast<size_t>(R)].push_back(std::move(T));
    }
    Want[static_cast<size_t>(R)] =
        cantFail(SoloSession.run(In[static_cast<size_t>(R)]));
  }
  std::atomic<int> Guard{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < N; ++R)
    Threads.emplace_back([&, R] {
      Expected<std::vector<Tensor>> Out =
          B->submit(In[static_cast<size_t>(R)]);
      if (!Out.ok()) {
        Guard = 1;
        return;
      }
      const std::vector<Tensor> &W = Want[static_cast<size_t>(R)];
      for (size_t O2 = 0; O2 < W.size(); ++O2)
        for (int64_t I = 0; I < W[O2].numElements(); ++I)
          if (W[O2].at(I) != Out.value()[O2].at(I)) {
            std::fprintf(stderr,
                         "CORRECTNESS GUARD: %s batched output diverges "
                         "from solo at request %d output %zu element %lld\n",
                         Name, R, O2, static_cast<long long>(I));
            Guard = 1;
            return;
          }
    });
  for (std::thread &T : Threads)
    T.join();
  return Guard;
}

/// The serving MLP, in the weight-stationary y = W.x formulation: requests
/// arrive as rows {Batch, 256}, are transposed into columns, and every dense
/// layer is W[Out,In] @ x[In, Batch]. At batch 1 each layer degenerates into
/// a matrix-vector product whose cost is streaming the whole weight matrix
/// per request; coalescing to batch B reuses every weight element across B
/// columns. This is the weight-bandwidth-bound regime dynamic batching
/// exists for. Weights are shape- and value-identical at every batch (same
/// seed, same weight order, no batch-dependent weight shapes).
Graph servingMlp(int64_t Batch) {
  GraphBuilder B(42);
  NodeId X = B.input(Shape({Batch, 256}), "features");
  NodeId H = B.transpose(X, {1, 0}); // {256, Batch}: one column per request.
  auto Dense = [&B](NodeId In, int64_t InF, int64_t OutF) {
    float Scale = 1.0f / std::sqrt(static_cast<float>(InF));
    NodeId W = B.weight(Shape({OutF, InF}), Scale);
    NodeId Bias = B.weight(Shape({OutF, 1}), Scale); // Broadcast over columns.
    return B.add(B.binary(OpKind::MatMul, W, In), Bias);
  };
  H = B.relu(Dense(H, 256, 1024));
  H = B.relu(Dense(H, 1024, 1024));
  H = Dense(H, 1024, 64);
  B.markOutput(B.softmax(B.transpose(H, {1, 0}), -1));
  return B.take();
}

BatcherOptions servingOptions(bool Batched) {
  BatcherOptions O;
  O.MaxBatchSize = Batched ? 16 : 1;
  O.BatchSizes = {1, 2, 4, 8, 16};
  O.Admission.MaxQueueDepth = 256;
  return O;
}

void printPoint(TablePrinter &T, const LoadPoint &P) {
  T.addRow({P.Batched ? "on" : "off", fmtCount(P.Clients),
            formatString("%.0f", P.Qps), fmtMs(P.P50Ms), fmtMs(P.P99Ms),
            formatString("%.2f", P.MeanBatch),
            fmtCount(static_cast<int64_t>(P.Shed)),
            fmtCount(static_cast<int64_t>(P.VariantCompiles))});
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  bool Quick = false;
  bool Chaos = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Argv[I], "--chaos") == 0)
      Chaos = true;
  }
  const double Window = Quick ? 0.25 : 1.5; // Seconds per measured point.
  const int ClientSweep[] = {1, 2, 4, 8, 16};
  int Guard = 0;

  printHeading("Serving load bench: dynamic batching on vs off",
               "Closed-loop clients; served QPS and latency percentiles "
               "per offered concurrency. Bit-identity and request "
               "accounting are hard guards.");

  struct ModelUnderLoad {
    const char *Name;
    DynamicBatcher::GraphFactory Factory;
  };
  const ModelUnderLoad Models[] = {
      {"serving-mlp", servingMlp},
      {"TinyBERT", [](int64_t B) { return buildModelBatched("TinyBERT", B); }},
  };

  FILE *Out = nullptr;
  if (JsonPath) {
    Out = std::fopen(JsonPath, "w");
    if (!Out) {
      std::fprintf(stderr, "cannot open %s\n", JsonPath);
      return 1;
    }
    std::fprintf(Out,
                 "{\n  \"bench\": \"serving\",\n  \"host_cpus\": %u,\n"
                 "  \"threads\": %u,\n  \"models\": [\n",
                 std::thread::hardware_concurrency(),
                 std::thread::hardware_concurrency());
  }

  // The acceptance headline: the first (weight-bandwidth-bound) model's
  // batched-vs-unbatched throughput ratio at the saturating client count.
  double PrimarySpeedup = 0;

  for (size_t MI = 0; MI < sizeof(Models) / sizeof(Models[0]); ++MI) {
    const ModelUnderLoad &M = Models[MI];
    Guard |= checkBatchedBitIdentity(M.Factory, M.Name);

    TablePrinter T({"Batching", "Clients", "QPS", "p50 ms", "p99 ms",
                    "Mean batch", "Shed", "Compiles"});
    std::vector<LoadPoint> Points;
    for (bool Batched : {false, true}) {
      std::unique_ptr<DynamicBatcher> B = cantFail(DynamicBatcher::create(
          M.Factory, CompileOptions(), servingOptions(Batched)));
      // Warm the buckets outside the measurement windows with one wave of
      // simultaneous requests per ladder size. With no arrival window a
      // wave need not coalesce whole (its first request often runs alone),
      // so a bucket can still compile inside a measured point; each
      // point's variant_compiles counts those.
      if (Batched) {
        for (int Wave : {16, 8, 4, 2}) {
          std::vector<std::thread> Warm;
          for (int C = 0; C < Wave; ++C)
            Warm.emplace_back([&] {
              Rng R(1);
              std::vector<Tensor> In;
              for (const TensorSpec &Spec : B->signature().Inputs) {
                Tensor Tn(Spec.Sh, Spec.Ty);
                fillRandom(Tn, R, 0.2f, 1.0f);
                In.push_back(std::move(Tn));
              }
              (void)B->submit(In);
            });
          for (std::thread &W : Warm)
            W.join();
        }
      }
      for (int Clients : ClientSweep) {
        LoadPoint P = runClosedLoop(*B, Clients, Window, Batched, &Guard);
        printPoint(T, P);
        Points.push_back(P);
      }
    }
    std::printf("\n-- %s --\n", M.Name);
    T.print();

    // Saturation speedup: batched vs unbatched served QPS at the highest
    // client count (the acceptance bar for the serving layer: >= 2x for
    // the dispatch-bound model class).
    double UnbatchedSat = 0, BatchedSat = 0;
    for (const LoadPoint &P : Points)
      if (P.Clients == ClientSweep[sizeof(ClientSweep) / sizeof(int) - 1]) {
        (P.Batched ? BatchedSat : UnbatchedSat) = P.Qps;
      }
    double Speedup = UnbatchedSat > 0 ? BatchedSat / UnbatchedSat : 0;
    std::printf("saturation speedup (batched/unbatched): %.2fx\n", Speedup);
    if (MI == 0)
      PrimarySpeedup = Speedup;

    if (Out) {
      std::fprintf(Out, "    {\"name\": \"%s\", \"points\": [\n", M.Name);
      for (size_t PI = 0; PI < Points.size(); ++PI) {
        const LoadPoint &P = Points[PI];
        std::fprintf(
            Out,
            "      {\"batching\": %s, \"clients\": %d, \"threads\": %d, "
            "\"duration_s\": %.2f, \"served\": %llu, \"shed\": %llu, "
            "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"mean_batch\": %.2f, \"variant_compiles\": %llu}%s\n",
            P.Batched ? "true" : "false", P.Clients, P.Clients, P.DurationSec,
            static_cast<unsigned long long>(P.Served),
            static_cast<unsigned long long>(P.Shed), P.Qps, P.P50Ms, P.P99Ms,
            P.MeanBatch, static_cast<unsigned long long>(P.VariantCompiles),
            PI + 1 < Points.size() ? "," : "");
      }
      std::fprintf(Out,
                   "    ], \"saturation_speedup\": %.3f}%s\n", Speedup,
                   MI + 1 < sizeof(Models) / sizeof(Models[0]) ? "," : "");
      std::fflush(Out);
    }
  }

  // --- Saturation storm: under-provisioned queue, every shed is typed ---
  printHeading("Saturation storm",
               "16 clients, queue bound 4, 1 ms deadlines: shedding must "
               "be typed and accounted, the pool must serve afterwards.");
  {
    BatcherOptions O = servingOptions(true);
    O.Admission.MaxQueueDepth = 4;
    // A few batch executions long: with the queue bound at 4 an admitted
    // request normally waits behind one batch and serves; the ones that
    // CPU contention from the 16 clients stretches past it shed typed.
    O.Admission.DefaultDeadlineMicros = 5000;
    std::unique_ptr<DynamicBatcher> B = cantFail(
        DynamicBatcher::create(servingMlp, CompileOptions(), O));
    LoadPoint Storm =
        runClosedLoop(*B, 16, Quick ? 0.25 : 1.0, true, &Guard);
    ServingStats S = B->stats();
    std::printf("storm: served %llu, shed %llu (queue-full %llu, "
                "deadline %llu), served-after-storm check: ",
                static_cast<unsigned long long>(Storm.Served),
                static_cast<unsigned long long>(Storm.Shed),
                static_cast<unsigned long long>(S.ShedQueueFull),
                static_cast<unsigned long long>(S.ShedDeadline));
    // Pool integrity after the storm.
    Rng R(9);
    std::vector<Tensor> In;
    for (const TensorSpec &Spec : B->signature().Inputs) {
      Tensor Tn(Spec.Sh, Spec.Ty);
      fillRandom(Tn, R, 0.2f, 1.0f);
      In.push_back(std::move(Tn));
    }
    // Explicit generous deadline: the check is that the pool serves again
    // at all, not that it does so within the storm's 5 ms.
    Expected<std::vector<Tensor>> After = B->submit(In, 1000000);
    if (!After.ok()) {
      std::printf("FAIL (%s)\n", After.status().toString().c_str());
      Guard = 1;
    } else {
      std::printf("ok\n");
    }
    if (Out)
      std::fprintf(
          Out,
          "  ],\n  \"storm\": {\"clients\": 16, \"queue_bound\": 4, "
          "\"deadline_us\": 5000, \"served\": %llu, \"shed_queue_full\": "
          "%llu, \"shed_deadline\": %llu},\n",
          static_cast<unsigned long long>(Storm.Served),
          static_cast<unsigned long long>(S.ShedQueueFull),
          static_cast<unsigned long long>(S.ShedDeadline));
  }

  // --- Chaos: degraded-mode serving under injected block faults ---------
  // Guard-only: the recorded p99 documents what degradation costs, but the
  // pass/fail signal is typed-or-served accounting while the fault is hot
  // and a healthy request once it clears.
  if (Chaos) {
    printHeading("Chaos storm (--chaos)",
                 "16 clients with exec.block armed intermittently: breakers "
                 "trip, dispatch decomposes, every failure stays typed, and "
                 "the pool serves healthy after disarm.");
    BatcherOptions O = servingOptions(true);
    O.BreakerCooldownMicros = 20000; // Trip and recover within the window.
    std::unique_ptr<DynamicBatcher> B = cantFail(
        DynamicBatcher::create(servingMlp, CompileOptions(), O));
    FaultInjection::instance().reset(99);
    FaultSpec Intermittent;
    Intermittent.Probability = 0.02;
    FaultInjection::instance().arm(faultpoints::ExecBlock, Intermittent);
    LoadPoint Degraded =
        runClosedLoop(*B, 16, Quick ? 0.25 : 1.0, true, &Guard);
    FaultInjection::instance().reset();
    ServingStats S = B->stats();
    std::printf("chaos: served %llu, typed failures %llu, breaker trips "
                "%llu, degraded requests %llu, p99 %.3f ms, "
                "healthy-after-disarm check: ",
                static_cast<unsigned long long>(Degraded.Served),
                static_cast<unsigned long long>(S.FailedExecution),
                static_cast<unsigned long long>(S.BreakerTrips),
                static_cast<unsigned long long>(S.DegradedRequests),
                Degraded.P99Ms);
    if (Degraded.Served == 0) {
      std::printf("FAIL (nothing served under 2%% fault rate)\n");
      Guard = 1;
    } else {
      Rng R(11);
      std::vector<Tensor> In;
      for (const TensorSpec &Spec : B->signature().Inputs) {
        Tensor Tn(Spec.Sh, Spec.Ty);
        fillRandom(Tn, R, 0.2f, 1.0f);
        In.push_back(std::move(Tn));
      }
      Expected<std::vector<Tensor>> After = B->submit(In, 1000000);
      if (!After.ok()) {
        std::printf("FAIL (%s)\n", After.status().toString().c_str());
        Guard = 1;
      } else {
        std::printf("ok\n");
      }
    }
    if (Out)
      std::fprintf(
          Out,
          "  \"chaos\": {\"clients\": 16, \"fault_point\": \"exec.block\", "
          "\"probability\": 0.02, \"served\": %llu, \"failed_execution\": "
          "%llu, \"breaker_trips\": %llu, \"degraded_requests\": %llu, "
          "\"p99_ms\": %.3f},\n",
          static_cast<unsigned long long>(Degraded.Served),
          static_cast<unsigned long long>(S.FailedExecution),
          static_cast<unsigned long long>(S.BreakerTrips),
          static_cast<unsigned long long>(S.DegradedRequests),
          Degraded.P99Ms);
  }

  if (Out) {
    std::fprintf(Out,
                 "  \"saturation_speedup\": %.3f,\n"
                 "  \"correctness_guard\": \"%s\"\n}\n",
                 PrimarySpeedup, Guard == 0 ? "pass" : "FAIL");
    std::fclose(Out);
    std::printf("\nJSON written to %s%s\n", JsonPath,
                Guard ? " (GUARD FAILED)" : "");
  }
  return Guard;
}
