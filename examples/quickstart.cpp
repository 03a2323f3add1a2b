//===- examples/quickstart.cpp - build, compile, serve -----------------------------===//
//
// The five-minute tour, written entirely against the stable public facade
// (<dnnfusion/dnnfusion.h>): build a small graph with GraphBuilder, compile
// it with the full DNNFusion pipeline, inspect the typed model signature,
// serve requests through an InferenceSession, and persist the compiled
// model with saveModel/loadModel (bit-identical execution from disk) —
// with every fallible step checked through the Expected error model (a
// malformed graph, request, or artifact comes back as a Status, never an
// abort).
//
//   $ ./quickstart
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include "tensor/TensorUtils.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace dnnfusion;

int main() {
  // 1. Build a computational graph: conv -> batchnorm -> relu -> residual.
  //    One builder recipe serves both compilations below (full pipeline vs
  //    no-fusion baseline) — the graph is consumed by compileModel.
  auto BuildGraph = [] {
    GraphBuilder B(/*Seed=*/42);
    NodeId X = B.input(Shape({1, 3, 32, 32}), "image");
    NodeId Conv = B.conv(X, /*OutChannels=*/8, /*Kernel=*/{3, 3},
                         /*Strides=*/{1, 1}, /*Pads=*/{1, 1});
    NodeId Act = B.relu(B.batchNorm(Conv));
    NodeId Conv2 = B.conv(Act, 8, {3, 3}, {1, 1}, {1, 1});
    B.markOutput(B.relu(B.add(Conv2, Act))); // Residual connection.
    return B.take();
  };
  Graph G = BuildGraph();
  std::printf("graph: %lld operator layers, %.2f MFLOPs\n",
              static_cast<long long>(G.countLayers()),
              static_cast<double>(G.totalFlops()) / 1e6);

  // 2. Compile with the full pipeline: mathematical-property graph
  //    rewriting (Conv+BatchNorm folds into the weights), mapping-type
  //    fusion planning, and fused code generation. Compilation validates
  //    the graph and returns an error Status instead of aborting on a
  //    malformed one.
  Expected<CompiledModel> Model = compileModel(std::move(G), CompileOptions());
  if (!Model.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n",
                 Model.status().toString().c_str());
    return 1;
  }
  std::printf("after compilation: %lld fused kernels (rewriting applied %d "
              "rules)\n",
              static_cast<long long>(Model->kernelLaunches()),
              Model->RewriteInfo.Applications);
  std::printf("model signature:\n%s", Model->Signature.toString().c_str());

  // 3. Serve it. Inputs bind by signature name; a request with a wrong
  //    name, shape, dtype, or arity is rejected with a Status — the
  //    session (and the process) survives.
  InferenceSession Session(Model.takeValue());
  Rng R(7);
  Tensor Image(Shape({1, 3, 32, 32}));
  fillRandom(Image, R);
  ExecutionStats Stats;
  Expected<std::vector<Tensor>> Outputs =
      Session.run({{"image", Image}}, &Stats);
  if (!Outputs.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 Outputs.status().toString().c_str());
    return 1;
  }
  std::printf("ran in %.3f ms: %lld kernel launches, %.2f KB intermediate "
              "traffic, output shape %s\n",
              Stats.WallMs, static_cast<long long>(Stats.KernelLaunches),
              static_cast<double>(Stats.MainBytesRead +
                                  Stats.MainBytesWritten) /
                  1024.0,
              (*Outputs)[0].shape().toString().c_str());

  // What rejection looks like (this is the serving error boundary, not a
  // crash): bind a wrong-shaped image to the same input name.
  Expected<std::vector<Tensor>> Bad =
      Session.run({{"image", Tensor::zeros(Shape({1, 3, 8, 8}))}});
  std::printf("wrong-shape request rejected: %s\n",
              Bad.ok() ? "UNEXPECTEDLY ACCEPTED" : Bad.status().toString().c_str());
  if (Bad.ok())
    return 1;

  // 4. Compare against the no-fusion baseline to see what fusion bought —
  //    same builder recipe, optimizations off.
  CompileOptions Off;
  Off.EnableGraphRewriting = false;
  Off.EnableFusion = false;
  Off.EnableOtherOpts = false;
  Expected<CompiledModel> Baseline = compileModel(BuildGraph(), Off);
  if (!Baseline.ok()) {
    std::fprintf(stderr, "baseline compilation failed: %s\n",
                 Baseline.status().toString().c_str());
    return 1;
  }
  InferenceSession BaselineSession(Baseline.takeValue());
  ExecutionStats S2;
  Expected<std::vector<Tensor>> Ref = BaselineSession.run({Image}, &S2);
  if (!Ref.ok()) {
    std::fprintf(stderr, "baseline inference failed: %s\n",
                 Ref.status().toString().c_str());
    return 1;
  }
  bool Agree = allClose((*Outputs)[0], (*Ref)[0], 1e-3f, 1e-3f);
  std::printf("baseline: %lld launches, %.2f KB traffic; outputs agree: %s\n",
              static_cast<long long>(S2.KernelLaunches),
              static_cast<double>(S2.MainBytesRead + S2.MainBytesWritten) /
                  1024.0,
              Agree ? "yes" : "NO");
  if (!Agree)
    return 1;

  // 5. Persist the compiled model and serve it from disk: saveModel writes
  //    one versioned artifact (graph + fusion plan + memory plan),
  //    loadModel restores it without re-running planning, and the
  //    loaded model is bit-identical in execution. (For transparent warm
  //    starts, set CompileOptions::CacheDir instead and compileModel does
  //    this keyed on content hash — see examples/save_load_roundtrip.cpp.)
  std::string ArtifactPath =
      "/tmp/dnnf_quickstart_" + std::to_string(getpid()) + ".dnnf";
  if (Status S = saveModel(Session.model(), ArtifactPath); !S.ok()) {
    std::fprintf(stderr, "saveModel failed: %s\n", S.toString().c_str());
    return 1;
  }
  Expected<CompiledModel> Reloaded = loadModel(ArtifactPath);
  std::remove(ArtifactPath.c_str());
  if (!Reloaded.ok()) {
    std::fprintf(stderr, "loadModel failed: %s\n",
                 Reloaded.status().toString().c_str());
    return 1;
  }
  InferenceSession FromDisk(Reloaded.takeValue());
  Expected<std::vector<Tensor>> DiskOut = FromDisk.run({{"image", Image}});
  if (!DiskOut.ok()) {
    std::fprintf(stderr, "inference on the reloaded model failed: %s\n",
                 DiskOut.status().toString().c_str());
    return 1;
  }
  bool BitIdentical =
      std::memcmp((*Outputs)[0].data(), (*DiskOut)[0].data(),
                  (*Outputs)[0].byteSize()) == 0;
  std::printf("save -> load -> run: outputs bit-identical: %s\n",
              BitIdentical ? "yes" : "NO");
  return BitIdentical ? 0 : 1;
}
