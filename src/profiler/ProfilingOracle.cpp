//===- profiler/ProfilingOracle.cpp - Measuring latency oracle --------------------===//

#include "profiler/ProfilingOracle.h"

#include "core/BlockCompiler.h"
#include "core/CodeEmitter.h"
#include "core/FusionPlanner.h"
#include "support/Timer.h"
#include "tensor/TensorUtils.h"

#include <algorithm>
#include <map>

using namespace dnnfusion;

namespace {

/// Measures \p Members of \p G as one fused block: median wall time of
/// \p Repeats runs after one warm-up.
double measureBlockLatencyMs(const Graph &G, const std::vector<NodeId> &Members,
                             int Repeats) {
  // Topological member order within the parent graph.
  std::vector<NodeId> Sorted = Members;
  {
    std::vector<int> Pos(static_cast<size_t>(G.numNodes()), 0);
    std::vector<NodeId> Order = G.topologicalOrder();
    for (size_t I = 0; I < Order.size(); ++I)
      Pos[static_cast<size_t>(Order[I])] = static_cast<int>(I);
    std::sort(Sorted.begin(), Sorted.end(), [&](NodeId A, NodeId B) {
      return Pos[static_cast<size_t>(A)] < Pos[static_cast<size_t>(B)];
    });
  }

  // Extract the members into a micro-graph; external producers become
  // placeholders.
  Graph Sub;
  std::map<NodeId, NodeId> Mapped;
  std::vector<NodeId> SubOps;
  for (NodeId Id : Sorted) {
    const Node &N = G.node(Id);
    std::vector<NodeId> Ins;
    for (NodeId In : N.Inputs) {
      auto It = Mapped.find(In);
      if (It == Mapped.end()) {
        NodeId Placeholder = Sub.addInput(G.node(In).OutShape);
        It = Mapped.emplace(In, Placeholder).first;
      }
      Ins.push_back(It->second);
    }
    NodeId SubId = Sub.addOp(N.Kind, std::move(Ins), N.Attrs);
    Mapped[Id] = SubId;
    SubOps.push_back(SubId);
  }
  // Every member without an internal consumer becomes an output.
  std::vector<std::vector<NodeId>> Consumers = Sub.computeConsumers();
  for (NodeId SubId : SubOps)
    if (Consumers[static_cast<size_t>(SubId)].empty())
      Sub.markOutput(SubId);

  FusionPlan Plan = planFromGroups(Sub, {SubOps});
  CompiledBlock Block = compileBlock(Sub, Plan.Blocks[0]);

  // Bind buffers: random inputs, output/scratch storage.
  Rng R(0x5eed);
  std::vector<Tensor> InputStore;
  BlockIo Io;
  for (NodeId Ext : Block.ExternalInputs) {
    Tensor T(Sub.node(Ext).OutShape);
    fillRandom(T, R, 0.2f, 1.2f); // Positive-safe domain for Sqrt/Log/Div.
    InputStore.push_back(std::move(T));
    Io.Externals.push_back(InputStore.back().data());
  }
  std::vector<Tensor> LocalStore;
  for (const CompiledBlock::LocalBuffer &L : Block.Locals) {
    LocalStore.push_back(Tensor(L.Sh));
    Io.LocalPtrs.push_back(LocalStore.back().data());
  }

  // Warm up once, then take the median of Repeats timed runs.
  executeBlock(Block, Io);
  std::vector<double> Times;
  for (int I = 0; I < Repeats; ++I) {
    WallTimer T;
    executeBlock(Block, Io);
    Times.push_back(T.millis());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

} // namespace

double ProfilingOracle::blockLatencyMs(const Graph &G,
                                       const std::vector<NodeId> &Members) {
  FusionBlock Key;
  Key.Members = Members;
  std::string Signature = blockSignature(G, Key);
  double Cached;
  if (Db.lookup(Signature, Cached))
    return Cached;
  WallTimer T;
  double Measured = measureBlockLatencyMs(G, Members, Repeats);
  SpentMs += T.millis();
  Db.record(Signature, Measured);
  return Measured;
}
