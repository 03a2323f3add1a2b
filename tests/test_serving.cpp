//===- tests/test_serving.cpp - The dynamic-batching serving front end -----------===//
//
// The serving layer's contract, end to end: batched execution is
// bit-identical to solo execution across the batch-parameterized zoo,
// admission control sheds with typed statuses (never aborts, never drops),
// the pool stays serviceable after every rejection storm, and the
// multi-model registry survives concurrent load/evict/run races (this file
// runs under TSAN in CI). Saturation behavior is probabilistic by nature,
// so tests assert on invariants — every submit resolves exactly one way —
// rather than on timing. The one timing bound, a lone request's queue wait
// under the default dispatch policy, sits far above a dispatcher wake-up.
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include "models/ModelZoo.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/LatencyHistogram.h"
#include "tensor/TensorUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

using namespace dnnfusion;

namespace {

/// A tiny two-layer MLP at leading-dim batch \p Batch; weights identical at
/// every batch (same seed, same weight order).
Graph mlp(int64_t Batch) {
  GraphBuilder B(77);
  NodeId X = B.input(Shape({Batch, 16}), "features");
  NodeId H = B.relu(B.linear(X, 32));
  B.markOutput(B.softmax(B.linear(H, 8), -1));
  return B.take();
}

/// The serving benchmark's weight-stationary MLP shape class at batch
/// \p Batch with layer widths \p Widths and weights drawn at \p Scale:
/// request rows {Batch, Widths[0]} are transposed into columns and each
/// layer is W[Out,In] x X[In,Batch] + bias (relu between layers), so a
/// batch-B bucket runs N = B narrow-N GEMMs on the packed routes.
Graph weightStationaryMlpOf(int64_t Batch, uint64_t Seed,
                            const std::vector<int64_t> &Widths, float Scale) {
  GraphBuilder B(Seed);
  NodeId H =
      B.transpose(B.input(Shape({Batch, Widths[0]}), "features"), {1, 0});
  for (size_t L = 1; L < Widths.size(); ++L) {
    NodeId W = B.weight(Shape({Widths[L], Widths[L - 1]}), Scale);
    NodeId Bias = B.weight(Shape({Widths[L], 1}), Scale);
    H = B.add(B.binary(OpKind::MatMul, W, H), Bias);
    if (L + 1 < Widths.size())
      H = B.relu(H);
  }
  B.markOutput(B.softmax(B.transpose(H, {1, 0}), -1));
  return B.take();
}

Graph weightStationaryMlp(int64_t Batch) {
  return weightStationaryMlpOf(Batch, 78, {16, 32, 8}, 0.5f);
}

/// Wide enough that a batch-1 run streams about 2 MB of weights (a few
/// tenths of a millisecond in Release), so concurrent clients queue behind
/// each execution and the backlog has something to coalesce. The scale
/// keeps activations and logits near unit size, so the softmax neither
/// saturates to 0/1 nor flattens to 1/16, which would hide a rounding
/// difference from the bit-identity check.
Graph wideWeightStationaryMlp(int64_t Batch) {
  return weightStationaryMlpOf(Batch, 79, {256, 1024, 256, 16}, 0.125f);
}

/// Distinct deterministic inputs for request \p R of a model with \p Sig.
std::vector<Tensor> requestInputs(const ModelSignature &Sig, uint64_t R) {
  Rng Rand(1000 + R);
  std::vector<Tensor> Inputs;
  for (const TensorSpec &Spec : Sig.Inputs) {
    Tensor T(Spec.Sh, Spec.Ty);
    fillRandom(T, Rand, 0.2f, 1.2f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

void expectBitIdentical(const std::vector<Tensor> &A,
                        const std::vector<Tensor> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t O = 0; O < A.size(); ++O) {
    ASSERT_EQ(A[O].shape().toString(), B[O].shape().toString()) << What;
    const float *Pa = A[O].data();
    const float *Pb = B[O].data();
    for (int64_t I = 0; I < A[O].shape().numElements(); ++I)
      ASSERT_EQ(Pa[I], Pb[I]) << What << " output " << O << " element " << I;
  }
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, PercentileBracketsRecordedValues) {
  LatencyHistogram H;
  for (int I = 1; I <= 1000; ++I)
    H.record(static_cast<double>(I)); // 1..1000 us, uniform.
  EXPECT_EQ(H.Count, 1000u);
  EXPECT_DOUBLE_EQ(H.MaxMicros, 1000.0);
  // Geometric buckets over-report by at most one bucket width (2^(1/4)).
  double P50 = H.percentile(50.0);
  EXPECT_GE(P50, 500.0 * 0.8);
  EXPECT_LE(P50, 500.0 * 1.3);
  double P99 = H.percentile(99.0);
  EXPECT_GE(P99, 990.0 * 0.8);
  EXPECT_LE(P99, 990.0 * 1.3);
  EXPECT_NEAR(H.meanMicros(), 500.5, 0.01);
}

TEST(LatencyHistogram, AddMergesDistributions) {
  LatencyHistogram A, B;
  A.record(10.0);
  B.record(1000.0);
  A.add(B);
  EXPECT_EQ(A.Count, 2u);
  EXPECT_DOUBLE_EQ(A.MaxMicros, 1000.0);
  EXPECT_GE(A.percentile(99.0), 1000.0 * 0.8);
}

TEST(LatencyHistogram, EmptyPercentileIsZero) {
  LatencyHistogram H;
  EXPECT_DOUBLE_EQ(H.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(H.meanMicros(), 0.0);
}

//===----------------------------------------------------------------------===//
// AdmissionController
//===----------------------------------------------------------------------===//

TEST(AdmissionController, BoundedQueueRejectsWithResourceExhausted) {
  AdmissionOptions O;
  O.MaxQueueDepth = 2;
  AdmissionController A(O);
  EXPECT_TRUE(A.tryAdmit().ok());
  EXPECT_TRUE(A.tryAdmit().ok());
  Status S = A.tryAdmit();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
  A.release();
  EXPECT_TRUE(A.tryAdmit().ok()); // Capacity returns after release.
  AdmissionStats St = A.stats();
  EXPECT_EQ(St.Admitted, 3u);
  EXPECT_EQ(St.RejectedQueueFull, 1u);
  EXPECT_EQ(St.Depth, 2u);
  EXPECT_EQ(St.HighWaterDepth, 2u);
}

TEST(AdmissionController, DeadlineCheckShedsExpiredRequests) {
  AdmissionController A((AdmissionOptions()));
  auto Now = AdmissionController::Clock::now();
  EXPECT_TRUE(A.checkDeadline(AdmissionController::noDeadline(), Now).ok());
  EXPECT_TRUE(A.checkDeadline(Now + std::chrono::seconds(1), Now).ok());
  Status S = A.checkDeadline(Now - std::chrono::milliseconds(5), Now);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(A.stats().ShedDeadline, 1u);
}

TEST(AdmissionController, HugeDeadlineSaturatesToNoDeadline) {
  // The sum is taken in nanoseconds; without saturation these overflow
  // into the past and the request sheds on arrival.
  AdmissionController A((AdmissionOptions()));
  auto Now = AdmissionController::Clock::now();
  for (int64_t Micros : {std::numeric_limits<int64_t>::max(),
                         int64_t(1) << 62}) {
    auto D = A.deadlineFor(Now, Micros);
    EXPECT_EQ(D, AdmissionController::noDeadline()) << Micros;
    EXPECT_TRUE(A.checkDeadline(D, Now).ok()) << Micros;
  }
  EXPECT_EQ(A.stats().ShedDeadline, 0u);
}

TEST(AdmissionController, DefaultDeadlineAppliesWhenRequestGivesNone) {
  AdmissionOptions O;
  O.DefaultDeadlineMicros = 1000;
  AdmissionController A(O);
  auto Now = AdmissionController::Clock::now();
  auto D = A.deadlineFor(Now, 0);
  EXPECT_EQ(D, Now + std::chrono::microseconds(1000));
  // An explicit per-request deadline overrides the default.
  EXPECT_EQ(A.deadlineFor(Now, 5000), Now + std::chrono::microseconds(5000));
}

//===----------------------------------------------------------------------===//
// DynamicBatcher: batched vs solo bit-identity
//===----------------------------------------------------------------------===//

/// Runs \p NumRequests concurrent submits through a batching front end and
/// asserts every request's outputs are bit-identical to solo batch-1
/// execution of the same inputs.
void expectBatchedMatchesSolo(DynamicBatcher::GraphFactory Factory,
                              int NumRequests, const char *What) {
  CompileOptions Compile;
  Expected<CompiledModel> Solo = compileModel(Factory(1), Compile);
  ASSERT_TRUE(Solo.ok()) << What << ": " << Solo.status().toString();
  InferenceSession SoloSession(Solo.takeValue());

  BatcherOptions O;
  O.MaxBatchSize = 8;
  O.BatchSizes = {1, 2, 4, 8};
  O.MaxQueueDelayMicros = 50000; // Wide window: coalesce all requests.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(Factory, Compile, O);
  ASSERT_TRUE(B.ok()) << What << ": " << B.status().toString();
  DynamicBatcher &Batcher = *B.value();

  std::vector<std::vector<Tensor>> Inputs;
  std::vector<std::vector<Tensor>> SoloOut;
  for (int R = 0; R < NumRequests; ++R) {
    Inputs.push_back(requestInputs(Batcher.signature(),
                                   static_cast<uint64_t>(R)));
    Expected<std::vector<Tensor>> Out = SoloSession.run(Inputs.back());
    ASSERT_TRUE(Out.ok()) << What << ": " << Out.status().toString();
    SoloOut.push_back(Out.takeValue());
  }

  std::vector<Expected<std::vector<Tensor>>> Served(
      static_cast<size_t>(NumRequests),
      Expected<std::vector<Tensor>>(
          Status::error(ErrorCode::Internal, "request never resolved")));
  std::vector<std::thread> Threads;
  for (int R = 0; R < NumRequests; ++R)
    Threads.emplace_back([&, R] {
      Served[static_cast<size_t>(R)] =
          Batcher.submit(Inputs[static_cast<size_t>(R)]);
    });
  for (std::thread &T : Threads)
    T.join();

  for (int R = 0; R < NumRequests; ++R) {
    ASSERT_TRUE(Served[static_cast<size_t>(R)].ok())
        << What << " request " << R << ": "
        << Served[static_cast<size_t>(R)].status().toString();
    expectBitIdentical(SoloOut[static_cast<size_t>(R)],
                       Served[static_cast<size_t>(R)].value(), What);
  }

  ServingStats S = Batcher.stats();
  EXPECT_EQ(S.Submitted, static_cast<uint64_t>(NumRequests));
  EXPECT_EQ(S.Served, static_cast<uint64_t>(NumRequests));
  EXPECT_EQ(S.TotalMicros.Count, static_cast<uint64_t>(NumRequests));
  EXPECT_EQ(S.QueueMicros.Count, static_cast<uint64_t>(NumRequests));
}

TEST(DynamicBatcher, MlpBatchedBitIdenticalToSolo) {
  // 7 -> greedy 4 + 2 + 1.
  expectBatchedMatchesSolo(mlp, 7, "MLP");
  expectBatchedMatchesSolo(weightStationaryMlp, 7, "weight-stationary MLP");
}

TEST(DynamicBatcher, ZooBatchedBitIdenticalToSolo) {
  // The batch-parameterized zoo: one transformer of each export flavor plus
  // the CNNs (the remaining transformers share the same builder skeleton).
  for (const char *Name : {"TinyBERT", "GPT-2", "VGG-16", "U-Net"}) {
    auto Factory = [Name](int64_t Batch) {
      return buildModelBatched(Name, Batch);
    };
    expectBatchedMatchesSolo(Factory, 5, Name); // 5 -> greedy 4 + 1.
  }
}

TEST(DynamicBatcher, BatchedBuilderAtBatchOneMatchesZooBuilder) {
  // The weight-identity contract the factory relies on: batched builders at
  // B=1 reproduce the zoo builder bit-for-bit.
  for (const std::string &Name : batchedModelNames()) {
    Expected<CompiledModel> A = compileModel(buildModel(Name));
    Expected<CompiledModel> B = compileModel(buildModelBatched(Name, 1));
    ASSERT_TRUE(A.ok() && B.ok()) << Name;
    InferenceSession Sa(A.takeValue()), Sb(B.takeValue());
    std::vector<Tensor> In = requestInputs(Sa.signature(), 7);
    Expected<std::vector<Tensor>> Oa = Sa.run(In);
    Expected<std::vector<Tensor>> Ob = Sb.run(In);
    ASSERT_TRUE(Oa.ok() && Ob.ok()) << Name;
    expectBitIdentical(Oa.value(), Ob.value(), Name.c_str());
  }
}

/// Total bytes of \p M's live constants.
int64_t constantBytes(const CompiledModel &M) {
  int64_t Bytes = 0;
  for (int Id = 0; Id < M.G.numNodes(); ++Id) {
    const Node &N = M.G.node(Id);
    if (!N.Dead && N.Kind == OpKind::Constant)
      Bytes += static_cast<int64_t>(N.ConstValue.byteSize());
  }
  return Bytes;
}

TEST(ShareConstants, BatchVariantSharesEveryWeightWithTheBase) {
  // What the batcher does to each variant it compiles: the batch-2 build
  // repeats the batch-1 weights, so every constant moves onto the batch-1
  // model's storage, and the variant still computes exactly what an
  // unshared compile of the same graph does.
  Expected<CompiledModel> Base = compileModel(weightStationaryMlp(1));
  Expected<CompiledModel> Variant = compileModel(weightStationaryMlp(2));
  Expected<CompiledModel> Unshared = compileModel(weightStationaryMlp(2));
  ASSERT_TRUE(Base.ok() && Variant.ok() && Unshared.ok());
  const int64_t Bytes = constantBytes(*Variant);
  ASSERT_GT(Bytes, 0);
  EXPECT_EQ(shareConstants(*Variant, *Base), Bytes);
  for (int Id = 0; Id < Variant->G.numNodes(); ++Id) {
    const Node &N = Variant->G.node(Id);
    if (N.Dead || N.Kind != OpKind::Constant)
      continue;
    bool Shared = false;
    for (int B = 0; B < Base->G.numNodes() && !Shared; ++B)
      Shared = Base->G.node(B).ConstValue.sharesStorageWith(N.ConstValue);
    EXPECT_TRUE(Shared) << "constant node " << Id;
  }
  // Sharing again finds everything already shared and changes nothing.
  EXPECT_EQ(shareConstants(*Variant, *Base), Bytes);

  InferenceSession SharedSession(Variant.takeValue());
  InferenceSession PlainSession(Unshared.takeValue());
  std::vector<Tensor> In = requestInputs(SharedSession.signature(), 3);
  Expected<std::vector<Tensor>> Want = PlainSession.run(In);
  Expected<std::vector<Tensor>> Got = SharedSession.run(In);
  ASSERT_TRUE(Want.ok() && Got.ok());
  expectBitIdentical(Want.value(), Got.value(), "shared batch-2 variant");
}

TEST(ShareConstants, DifferentWeightsStayUnshared) {
  // Same shapes, different seed: no constant matches byte for byte, so
  // nothing is shared.
  Expected<CompiledModel> A =
      compileModel(weightStationaryMlpOf(1, 78, {16, 32, 8}, 0.5f));
  Expected<CompiledModel> B =
      compileModel(weightStationaryMlpOf(2, 80, {16, 32, 8}, 0.5f));
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(shareConstants(*B, *A), 0);
}

TEST(DynamicBatcher, CoalescesConcurrentRequestsIntoFewerExecutions) {
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxBatchSize = 8;
  O.MaxQueueDelayMicros = 100000; // Wide enough to definitely coalesce.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 1);
  std::vector<std::thread> Threads;
  for (int R = 0; R < 8; ++R)
    Threads.emplace_back([&] {
      Expected<std::vector<Tensor>> Out = B.value()->submit(In);
      EXPECT_TRUE(Out.ok());
    });
  for (std::thread &T : Threads)
    T.join();
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.Served, 8u);
  // 8 requests in a 100 ms window on one dispatcher must coalesce: strictly
  // fewer executions than requests.
  EXPECT_LT(S.BatchesExecuted, 8u);
  uint64_t WeightedRequests = 0;
  for (size_t K = 0; K < S.BatchSizeCounts.size(); ++K)
    WeightedRequests += static_cast<uint64_t>(K) * S.BatchSizeCounts[K];
  EXPECT_EQ(WeightedRequests, 8u); // Every request in exactly one batch.
}

TEST(DynamicBatcher, DefaultOptionsDispatchALoneRequestAtOnce) {
  // Work-conserving by default: with nothing else queued, a request goes
  // straight to execution instead of waiting for company; an arrival
  // window would hold every one of these for the whole window.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, CompileOptions());
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 15);
  for (int R = 0; R < 20; ++R)
    ASSERT_TRUE(B.value()->submit(In).ok());
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.BatchSizeCounts[1], 20u);
  EXPECT_LT(S.QueueMicros.percentile(50.0), 1000.0);
}

TEST(DynamicBatcher, BacklogCoalescesWithoutAWindow) {
  // Closed-loop clients against the default (no window): requests that
  // queue while a batch runs form the next batch, and every coalesced
  // response stays bit-identical to solo batch-1 execution.
  CompileOptions Compile;
  Expected<CompiledModel> Solo =
      compileModel(wideWeightStationaryMlp(1), Compile);
  ASSERT_TRUE(Solo.ok()) << Solo.status().toString();
  InferenceSession SoloSession(Solo.takeValue());
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(wideWeightStationaryMlp, Compile);
  ASSERT_TRUE(B.ok()) << B.status().toString();
  DynamicBatcher &Batcher = *B.value();

  const int Clients = 8, PerClient = 25;
  std::vector<std::vector<Tensor>> Inputs, SoloOut;
  for (int C = 0; C < Clients; ++C) {
    Inputs.push_back(
        requestInputs(Batcher.signature(), static_cast<uint64_t>(20 + C)));
    Expected<std::vector<Tensor>> Out = SoloSession.run(Inputs.back());
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    SoloOut.push_back(Out.takeValue());
  }
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (int R = 0; R < PerClient; ++R) {
        Expected<std::vector<Tensor>> Out =
            Batcher.submit(Inputs[static_cast<size_t>(C)]);
        ASSERT_TRUE(Out.ok()) << Out.status().toString();
        expectBitIdentical(SoloOut[static_cast<size_t>(C)], Out.value(),
                           "backlog batch");
      }
    });
  for (std::thread &T : Threads)
    T.join();

  ServingStats S = Batcher.stats();
  EXPECT_EQ(S.Served, static_cast<uint64_t>(Clients * PerClient));
  uint64_t WeightedRequests = 0, Coalesced = 0;
  for (size_t K = 1; K < S.BatchSizeCounts.size(); ++K) {
    WeightedRequests += static_cast<uint64_t>(K) * S.BatchSizeCounts[K];
    if (K >= 2)
      Coalesced += S.BatchSizeCounts[K];
  }
  EXPECT_EQ(WeightedRequests, static_cast<uint64_t>(Clients * PerClient));
  EXPECT_GE(Coalesced, 1u) << "the backlog never formed a batch";
}

TEST(DynamicBatcher, HugeDeadlineIsServed) {
  // INT64_MAX is the natural way to ask for "never expire"; it must not
  // overflow into a deadline before arrival and shed the request.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, CompileOptions());
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 16);
  Expected<std::vector<Tensor>> Out =
      B.value()->submit(In, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(B.value()->stats().ShedDeadline, 0u);
}

//===----------------------------------------------------------------------===//
// Saturation: shedding is typed, the pool survives
//===----------------------------------------------------------------------===//

TEST(DynamicBatcher, QueueFullRejectsThenServes) {
  CompileOptions Compile;
  BatcherOptions O;
  O.Admission.MaxQueueDepth = 1;
  O.MaxQueueDelayMicros = 100000; // Hold the first request in the window.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 2);

  std::thread First([&] {
    Expected<std::vector<Tensor>> Out = B.value()->submit(In);
    EXPECT_TRUE(Out.ok());
  });
  // Wait until the first request owns the queue slot.
  while (B.value()->stats().QueueDepth == 0 &&
         B.value()->stats().Served == 0)
    std::this_thread::yield();

  Expected<std::vector<Tensor>> Rejected = B.value()->submit(In);
  if (!Rejected.ok()) { // Racing with completion: rejection is the norm.
    EXPECT_EQ(Rejected.status().code(), ErrorCode::ResourceExhausted);
  }
  First.join();

  // Pool integrity: once the queue drains, the same front end serves again.
  Expected<std::vector<Tensor>> After = B.value()->submit(In);
  EXPECT_TRUE(After.ok()) << After.status().toString();
}

TEST(DynamicBatcher, DeadlineStormShedsEveryExpiredRequestTyped) {
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxQueueDelayMicros = 20000; // Requests sit 20 ms before dispatch.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 3);

  const int N = 6;
  std::atomic<int> Shed{0}, ServedCount{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < N; ++R)
    Threads.emplace_back([&] {
      // 1 us deadline: expired long before the 20 ms window closes.
      Expected<std::vector<Tensor>> Out = B.value()->submit(In, 1);
      if (Out.ok()) {
        ++ServedCount;
      } else {
        EXPECT_EQ(Out.status().code(), ErrorCode::DeadlineExceeded)
            << Out.status().toString();
        ++Shed;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Shed + ServedCount, N); // Every request resolved exactly once.
  EXPECT_GT(Shed.load(), 0);        // The storm actually shed.
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.ShedDeadline, static_cast<uint64_t>(Shed.load()));

  // Pool integrity: an undeadlined request after the storm is served.
  Expected<std::vector<Tensor>> After = B.value()->submit(In);
  EXPECT_TRUE(After.ok()) << After.status().toString();
  EXPECT_EQ(B.value()->stats().Served,
            static_cast<uint64_t>(ServedCount.load()) + 1);
}

TEST(DynamicBatcher, ShutdownDrainsQueuedRequestsWithTypedStatus) {
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxQueueDelayMicros = 500000; // Long window: requests stay queued.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 4);

  const int N = 3;
  std::atomic<int> Resolved{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < N; ++R)
    Threads.emplace_back([&] {
      Expected<std::vector<Tensor>> Out = B.value()->submit(In);
      // Drained requests get FailedPrecondition; a request that raced
      // ahead of shutdown may have been served. Both are clean exits.
      if (!Out.ok()) {
        EXPECT_EQ(Out.status().code(), ErrorCode::FailedPrecondition)
            << Out.status().toString();
      }
      ++Resolved;
    });
  while (B.value()->stats().QueueDepth < N &&
         B.value()->stats().Served + B.value()->stats().ShedShutdown <
             static_cast<uint64_t>(N))
    std::this_thread::yield();
  B.value().reset(); // Destruction drains: no submit may hang or abort.
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Resolved.load(), N);
}

TEST(DynamicBatcher, BrokenFactoryFallsBackToSoloExecution) {
  // A factory that ignores the batch argument breaks the leading-dim
  // contract for every bucket > 1: the batcher must mark those buckets
  // dead and still serve every request through the batch-1 session.
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxQueueDelayMicros = 30000;
  auto Broken = [](int64_t) { return mlp(1); };
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(Broken, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 5);
  std::vector<std::thread> Threads;
  for (int R = 0; R < 4; ++R)
    Threads.emplace_back([&] {
      Expected<std::vector<Tensor>> Out = B.value()->submit(In);
      EXPECT_TRUE(Out.ok()) << Out.status().toString();
    });
  for (std::thread &T : Threads)
    T.join();
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.Served, 4u);
  EXPECT_GT(S.VariantCompileFailures, 0u);
  // Only bucket 1 executions happened.
  for (size_t K = 2; K < S.BatchSizeCounts.size(); ++K)
    EXPECT_EQ(S.BatchSizeCounts[K], 0u) << "bucket " << K;
}

TEST(DynamicBatcher, InvalidRequestIsRejectedBeforeQueueing) {
  CompileOptions Compile;
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, {});
  ASSERT_TRUE(B.ok());
  Expected<std::vector<Tensor>> Out =
      B.value()->submit({Tensor::full(Shape({3, 3}), 1.0f)});
  ASSERT_FALSE(Out.ok());
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.RejectedValidation, 1u);
  EXPECT_EQ(S.QueueMicros.Count, 0u); // Never queued.
}

//===----------------------------------------------------------------------===//
// Resilience: circuit breakers, combined shedding gates, shutdown races
//===----------------------------------------------------------------------===//

TEST(DynamicBatcher, BreakerTripsDecomposesAndRecovers) {
  FaultInjection::instance().reset();
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxBatchSize = 4;
  O.BatchSizes = {1, 2, 4};
  O.MaxQueueDelayMicros = 100000; // Wide enough to definitely coalesce.
  O.BreakerCooldownMicros = 30000;
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 12);
  auto submitWave = [&] {
    std::vector<std::thread> Threads;
    for (int R = 0; R < 4; ++R)
      Threads.emplace_back([&] {
        Expected<std::vector<Tensor>> Out = B.value()->submit(In);
        // Only a fault landing on a solo execution (ladder floor) may
        // surface to a caller; everything else decomposes and serves.
        if (!Out.ok()) {
          EXPECT_EQ(Out.status().code(), ErrorCode::Internal)
              << Out.status().toString();
        }
      });
    for (std::thread &T : Threads)
      T.join();
  };

  submitWave(); // Warm, un-faulted: compiles the coalesced-bucket variant.
  ASSERT_EQ(B.value()->stats().Served, 4u);

  // One injected block fault per wave: the coalesced batch's execution
  // fails, its bucket's breaker trips, and the work decomposes down the
  // ladder instead of failing the requests. A wave that happens not to
  // coalesce (fault burns on a solo run, no trip) is retried.
  FaultSpec Once;
  Once.MaxTriggers = 1;
  for (int Wave = 0; Wave < 10 && B.value()->stats().BreakerTrips == 0;
       ++Wave) {
    FaultInjection::instance().arm(faultpoints::ExecBlock, Once);
    submitWave();
    FaultInjection::instance().reset();
  }
  ServingStats Tripped = B.value()->stats();
  EXPECT_GE(Tripped.BreakerTrips, 1u);
  EXPECT_GE(Tripped.DegradedRequests, 1u); // Decomposition was forced...
  EXPECT_EQ(Tripped.QueueDepth, 0u);       // ...and nothing was stranded.

  // After the cooldown, dispatch hands the open bucket out as a re-probe;
  // the healthy execution restores it to service.
  std::this_thread::sleep_for(
      std::chrono::microseconds(2 * O.BreakerCooldownMicros));
  for (int Wave = 0; Wave < 10 && B.value()->stats().BreakerRestores == 0;
       ++Wave)
    submitWave();
  ServingStats Restored = B.value()->stats();
  EXPECT_GE(Restored.BreakerReprobes, 1u);
  EXPECT_GE(Restored.BreakerRestores, 1u);
  FaultInjection::instance().reset();
}

TEST(DynamicBatcher, OneFailedBatchOpensItsBucketUntilAReprobeSucceeds) {
  FaultInjection::instance().reset();
  BatcherOptions O;
  O.MaxBatchSize = 2;
  O.BatchSizes = {1, 2};
  // The window outlasts any wave, so each wave of two requests dispatches
  // as one batch of 2 unless bucket 2 is open.
  O.MaxQueueDelayMicros = 10000000;
  O.BreakerCooldownMicros = 500000;
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, CompileOptions(), O);
  ASSERT_TRUE(B.ok()) << B.status().toString();
  DynamicBatcher &Batcher = *B.value();
  std::vector<Tensor> In = requestInputs(Batcher.signature(), 31);
  // Two concurrent requests; with Fault, the wave's first block execution
  // fails. Every request is served: a failed batch decomposes to solo.
  auto Wave = [&](bool Fault) {
    if (Fault) {
      FaultSpec Once;
      Once.MaxTriggers = 1;
      FaultInjection::instance().arm(faultpoints::ExecBlock, Once);
    }
    std::vector<std::thread> Threads;
    for (int R = 0; R < 2; ++R)
      Threads.emplace_back([&] {
        Expected<std::vector<Tensor>> Out = Batcher.submit(In);
        EXPECT_TRUE(Out.ok()) << Out.status().toString();
      });
    for (std::thread &T : Threads)
      T.join();
    FaultInjection::instance().reset();
    return Batcher.stats();
  };
  auto Cooldown = std::chrono::microseconds(O.BreakerCooldownMicros);

  ServingStats S = Wave(false); // Compiles bucket 2 and serves through it.
  ASSERT_EQ(S.BatchSizeCounts[2], 1u);

  // One failed batched execution opens the bucket. Its pair re-runs solo,
  // and both count as degraded: the ladder would have run them together.
  S = Wave(true);
  EXPECT_EQ(S.BatchSizeCounts[2], 2u);
  EXPECT_EQ(S.BreakerTrips, 1u);
  EXPECT_EQ(S.DegradedRequests, 2u);

  // After the cooldown a failed re-probe re-opens it...
  std::this_thread::sleep_for(Cooldown + std::chrono::milliseconds(100));
  auto ProbeStart = std::chrono::steady_clock::now();
  S = Wave(true);
  EXPECT_EQ(S.BatchSizeCounts[2], 3u);
  EXPECT_EQ(S.BreakerReprobes, 1u);
  EXPECT_EQ(S.BreakerTrips, 2u);
  EXPECT_EQ(S.BreakerRestores, 0u);
  // ...for another cooldown: a wave inside it decomposes without a probe.
  // The failed re-probe's pair and this wave's pair each add 2 degraded.
  S = Wave(false);
  if (std::chrono::steady_clock::now() < ProbeStart + Cooldown) {
    EXPECT_EQ(S.BatchSizeCounts[2], 3u);
    EXPECT_EQ(S.BreakerReprobes, 1u);
    EXPECT_EQ(S.DegradedRequests, 6u);
  }

  // A successful re-probe restores it: later waves batch without probing.
  // The restore is recorded after the probe's requests complete, so it is
  // read after the next wave, which the one dispatcher runs after it.
  std::this_thread::sleep_for(Cooldown + std::chrono::milliseconds(100));
  S = Wave(false);
  EXPECT_EQ(S.BreakerReprobes, 2u);
  S = Wave(false);
  EXPECT_EQ(S.BreakerRestores, 1u);
  EXPECT_EQ(S.BreakerReprobes, 2u);
  EXPECT_EQ(S.BreakerTrips, 2u);
  EXPECT_EQ(S.Served, 12u);
}

TEST(DynamicBatcher, QueueFullAndDeadlineStormResolvesEverySubmitOnce) {
  CompileOptions Compile;
  BatcherOptions O;
  O.Admission.MaxQueueDepth = 2;
  O.MaxQueueDelayMicros = 20000;
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 13);

  // 1 us deadlines against a 20 ms window and a 2-deep queue: both
  // shedding gates fire across the same storm, and every submit must
  // still resolve exactly once with a typed outcome.
  const int N = 16;
  std::atomic<int> Ok{0}, QueueFull{0}, Deadline{0}, Other{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < N; ++R)
    Threads.emplace_back([&] {
      Expected<std::vector<Tensor>> Out = B.value()->submit(In, 1);
      if (Out.ok())
        ++Ok;
      else if (Out.status().code() == ErrorCode::ResourceExhausted)
        ++QueueFull;
      else if (Out.status().code() == ErrorCode::DeadlineExceeded)
        ++Deadline;
      else
        ++Other;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ok + QueueFull + Deadline, N);
  EXPECT_EQ(Other.load(), 0);
  EXPECT_GT(Deadline.load(), 0);  // The admitted requests expired...
  EXPECT_GT(QueueFull.load(), 0); // ...while holding the queue full.
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.Submitted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.ShedQueueFull, static_cast<uint64_t>(QueueFull.load()));
  EXPECT_EQ(S.ShedDeadline + S.DeadlineMidExecution,
            static_cast<uint64_t>(Deadline.load()));
  EXPECT_EQ(S.QueueDepth, 0u); // Nothing stranded.

  // Both gates clear: an undeadlined submit is served.
  Expected<std::vector<Tensor>> After = B.value()->submit(In);
  EXPECT_TRUE(After.ok()) << After.status().toString();
}

TEST(DynamicBatcher, ShutdownRacesInFlightSubmitsCleanly) {
  CompileOptions Compile;
  BatcherOptions O;
  O.MaxBatchSize = 2;            // Small batches: several dispatches race.
  O.MaxQueueDelayMicros = 20000; // Requests pile up before the window closes.
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile, O);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 14);

  const int N = 6;
  std::atomic<int> Resolved{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < N; ++R)
    Threads.emplace_back([&] {
      Expected<std::vector<Tensor>> Out = B.value()->submit(In);
      // Served or drained; either way typed, exactly once.
      if (!Out.ok()) {
        EXPECT_EQ(Out.status().code(), ErrorCode::FailedPrecondition)
            << Out.status().toString();
      }
      ++Resolved;
    });

  // Destroy only once every request is queued or resolved: a request in
  // neither count is still inside submit()'s pre-queue section, which the
  // destructor does not synchronize with (reading Resolved first keeps
  // the check conservative — a request can only move queued -> resolved).
  for (;;) {
    int Done = Resolved.load();
    if (Done + static_cast<int>(B.value()->stats().QueueDepth) >= N)
      break;
    std::this_thread::yield();
  }
  B.value().reset(); // Races the dispatcher mid-window / mid-batch.
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Resolved.load(), N); // No submit hung and none vanished.
}

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

TEST(ModelRegistry, LoadAliasRunEvict) {
  ModelRegistry R;
  ASSERT_TRUE(R.load("mlp-v1", mlp).ok());
  ASSERT_TRUE(R.alias("default", "mlp-v1").ok());
  EXPECT_EQ(R.names(), (std::vector<std::string>{"default", "mlp-v1"}));

  Expected<std::shared_ptr<DynamicBatcher>> B = R.acquire("default");
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 6);
  Expected<std::vector<Tensor>> Out = R.run("default", In);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();

  // Duplicate and dangling names are typed rejections.
  EXPECT_EQ(R.load("mlp-v1", mlp).code(), ErrorCode::FailedPrecondition);
  EXPECT_EQ(R.alias("default", "mlp-v1").code(),
            ErrorCode::FailedPrecondition);
  EXPECT_EQ(R.alias("x", "nope").code(), ErrorCode::NotFound);

  // Evicting the canonical name detaches its aliases too.
  ASSERT_TRUE(R.evict("mlp-v1").ok());
  EXPECT_TRUE(R.names().empty());
  EXPECT_EQ(R.run("default", In).status().code(), ErrorCode::NotFound);

  // The acquired handle outlives the evict — in-flight traffic finishes.
  Expected<std::vector<Tensor>> Late = B.value()->submit(In);
  EXPECT_TRUE(Late.ok()) << Late.status().toString();

  RegistryStats St = R.stats();
  EXPECT_EQ(St.Loads, 1u);
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.Models, 0u);
}

TEST(ModelRegistry, EvictingAliasKeepsModelServing) {
  ModelRegistry R;
  ASSERT_TRUE(R.load("m", mlp).ok());
  ASSERT_TRUE(R.alias("a", "m").ok());
  ASSERT_TRUE(R.evict("a").ok());
  EXPECT_EQ(R.names(), std::vector<std::string>{"m"});
  EXPECT_EQ(R.stats().Evictions, 0u); // Alias detach is not a model evict.
  std::vector<Tensor> In;
  Expected<std::shared_ptr<DynamicBatcher>> B = R.acquire("m");
  ASSERT_TRUE(B.ok());
  In = requestInputs(B.value()->signature(), 8);
  EXPECT_TRUE(R.run("m", In).ok());
}

TEST(ModelRegistry, GraphAndArtifactLoadsServeBatchOne) {
  ModelRegistry R;
  ASSERT_TRUE(R.loadGraph("fixed", mlp(1)).ok());
  Expected<std::shared_ptr<DynamicBatcher>> B = R.acquire("fixed");
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 9);
  EXPECT_TRUE(R.run("fixed", In).ok());

  // Round-trip through a saved artifact.
  std::string Path = ::testing::TempDir() + "serving_artifact.dnnf";
  Expected<CompiledModel> M = compileModel(mlp(1));
  ASSERT_TRUE(M.ok());
  ASSERT_TRUE(saveModel(M.value(), Path).ok());
  ASSERT_TRUE(R.loadArtifact("from-disk", Path).ok());
  EXPECT_TRUE(R.run("from-disk", In).ok());
  // Corrupt artifacts are typed rejections, not aborts.
  ASSERT_TRUE(writeFileAtomic(Path, "not an artifact").ok());
  EXPECT_FALSE(R.loadArtifact("bad", Path).ok());
  EXPECT_EQ(R.run("bad", In).status().code(), ErrorCode::NotFound);
}

TEST(ModelRegistry, ConcurrentLoadEvictRunRacesAreClean) {
  // Hammer one name from servers and an evict/reload loop from an operator
  // thread. Every run() resolves with outputs or a typed status; TSAN (CI)
  // checks the synchronization.
  ModelRegistry R;
  ASSERT_TRUE(R.load("hot", mlp).ok());
  std::vector<Tensor> In;
  {
    Expected<std::shared_ptr<DynamicBatcher>> B = R.acquire("hot");
    ASSERT_TRUE(B.ok());
    In = requestInputs(B.value()->signature(), 10);
  }
  std::atomic<bool> Stop{false};
  std::atomic<int> ServedCount{0}, Missed{0};
  std::vector<std::thread> Servers;
  for (int T = 0; T < 3; ++T)
    Servers.emplace_back([&] {
      while (!Stop) {
        Expected<std::vector<Tensor>> Out = R.run("hot", In);
        if (Out.ok()) {
          ++ServedCount;
        } else {
          // NotFound (evicted) or FailedPrecondition (shutdown drain while
          // an evicted batcher destructs) are the only clean misses.
          EXPECT_TRUE(Out.status().code() == ErrorCode::NotFound ||
                      Out.status().code() == ErrorCode::FailedPrecondition)
              << Out.status().toString();
          ++Missed;
        }
      }
    });
  for (int Cycle = 0; Cycle < 5; ++Cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(R.evict("hot").ok());
    ASSERT_TRUE(R.load("hot", mlp).ok());
  }
  Stop = true;
  for (std::thread &T : Servers)
    T.join();
  EXPECT_GT(ServedCount.load(), 0);
  RegistryStats St = R.stats();
  EXPECT_EQ(St.Loads, 6u);
  EXPECT_EQ(St.Evictions, 5u);
  EXPECT_EQ(St.Models, 1u);
}

//===----------------------------------------------------------------------===//
// Session metrics plumb through
//===----------------------------------------------------------------------===//

TEST(ServingMetrics, ExecLatencyHistogramFeedsFromSessions) {
  CompileOptions Compile;
  Expected<std::unique_ptr<DynamicBatcher>> B =
      DynamicBatcher::create(mlp, Compile);
  ASSERT_TRUE(B.ok());
  std::vector<Tensor> In = requestInputs(B.value()->signature(), 11);
  for (int R = 0; R < 3; ++R)
    ASSERT_TRUE(B.value()->submit(In).ok());
  ServingStats S = B.value()->stats();
  EXPECT_EQ(S.Sessions.RequestsServed, 3u);
  EXPECT_EQ(S.Sessions.ExecMicros.Count, 3u);
  EXPECT_GT(S.Sessions.ExecMicros.MaxMicros, 0.0);
  EXPECT_GT(S.TotalMicros.percentile(50.0), 0.0);
}

} // namespace
