//===- tests/TestUtils.h - Shared test helpers ---------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across the test suite: running a graph through the
/// no-fusion reference pipeline, through the fully optimized pipeline,
/// and operator by operator through the reference kernels, and comparing
/// outputs.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_TESTS_TESTUTILS_H
#define DNNFUSION_TESTS_TESTUTILS_H

#include "GraphFuzz.h"
#include "ops/Kernels.h"
#include "runtime/ExecutionContext.h"
#include "runtime/ModelCompiler.h"
#include "support/StringUtils.h"
#include "tensor/TensorUtils.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

namespace dnnfusion {
namespace testutil {

/// Random inputs for every Input node of \p G (positive-safe domain so
/// Sqrt/Log/Div stay finite).
inline std::vector<Tensor> randomInputs(const Graph &G, uint64_t Seed,
                                        float Lo = 0.2f, float Hi = 1.2f) {
  Rng R(Seed);
  std::vector<Tensor> Inputs;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (!N.Dead && N.Kind == OpKind::Input) {
      Tensor T(N.OutShape);
      fillRandom(T, R, Lo, Hi);
      Inputs.push_back(std::move(T));
    }
  }
  return Inputs;
}

/// Runs \p G unoptimized (no rewriting, no fusion) — the reference
/// result.
inline std::vector<Tensor> runReference(const Graph &G,
                                        const std::vector<Tensor> &Inputs) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  Opt.EnableFusion = false;
  Opt.EnableOtherOpts = false;
  CompiledModel M = cantFail(compileModel(G, Opt));
  ExecutionContext E(M);
  return E.run(Inputs);
}

/// Runs every live operator of \p G through its reference kernel
/// (runRefKernel with the naive GEMM kernels and the scalar tier) in
/// topological order, and returns each node's value indexed by NodeId
/// (null for dead nodes). \p Inputs bind the Input nodes in id order, as
/// randomInputs produces them.
///
/// This is the tape-independent oracle. runReference cannot be one for
/// the tape: with fusion off, its elementwise operators still run as
/// single-op DftProgram tapes, so a lowering bug (LoadSplat, LoadPeriodic,
/// router sets) would hit both sides of the comparison. Nothing here goes
/// through codegen.
inline std::vector<Tensor> runPerOpWalker(const Graph &G,
                                          const std::vector<Tensor> &Inputs) {
  KernelConfig Reference;
  Reference.UsePackedGemm = false;
  Reference.ForceKernelLevel = 0;
  std::vector<Tensor> Values(static_cast<size_t>(G.numNodes()));
  size_t NextInput = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    if (!G.node(Id).Dead && G.node(Id).Kind == OpKind::Input)
      Values[static_cast<size_t>(Id)] = Inputs.at(NextInput++);
  for (NodeId Id : G.topologicalOrder()) {
    const Node &N = G.node(Id);
    if (N.Kind == OpKind::Input)
      continue;
    if (N.Kind == OpKind::Constant) {
      Values[static_cast<size_t>(Id)] = N.ConstValue;
      continue;
    }
    std::vector<const Tensor *> Args;
    for (NodeId In : N.Inputs)
      Args.push_back(&Values[static_cast<size_t>(In)]);
    Tensor Out(N.OutShape);
    runRefKernel(N.Kind, N.Attrs, Args, Out, Reference);
    Values[static_cast<size_t>(Id)] = std::move(Out);
  }
  return Values;
}

/// Runs \p G through the full DNNFusion pipeline with \p Options.
inline std::vector<Tensor> runOptimized(const Graph &G,
                                        const std::vector<Tensor> &Inputs,
                                        const CompileOptions &Options = {}) {
  CompiledModel M = cantFail(compileModel(G, Options));
  ExecutionContext E(M);
  return E.run(Inputs);
}

/// Asserts the optimized pipeline reproduces the reference outputs. Output
/// comparison itself lives in GraphFuzz.h (compareOutputs) so this layer
/// and the fuzz harness report failures uniformly.
inline void expectOptimizedMatchesReference(const Graph &G, uint64_t Seed,
                                            const CompileOptions &Options = {},
                                            float RelTol = 2e-3f,
                                            float AbsTol = 2e-3f) {
  std::vector<Tensor> Inputs = randomInputs(G, Seed);
  std::vector<Tensor> Ref = runReference(G, Inputs);
  std::vector<Tensor> Opt = runOptimized(G, Inputs, Options);
  std::optional<std::string> Diff = compareOutputs(Ref, Opt, RelTol, AbsTol);
  EXPECT_FALSE(Diff.has_value()) << *Diff;
}

/// Asserts the optimized pipeline reproduces the reference outputs under
/// every configuration of the differential matrix (see GraphFuzz.h),
/// honoring each config's own tolerance (exact configs stay strict, the
/// fused-attention relaxation stays at its documented bound) and the
/// bit-identity pairings between configs.
inline void
expectMatchesReferenceUnderMatrix(const Graph &G, uint64_t Seed,
                                  float RelTol = 2e-3f, float AbsTol = 2e-3f) {
  std::vector<Tensor> Inputs = randomInputs(G, Seed);
  std::vector<Tensor> Ref = runReference(G, Inputs);
  std::map<std::string, std::vector<Tensor>> ByName;
  for (const DiffConfig &Config : defaultConfigMatrix()) {
    std::vector<Tensor> Opt = runOptimized(G, Inputs, Config.Options);
    float Rel = Config.RelTol >= 0.0f ? Config.RelTol : RelTol;
    float Abs = Config.AbsTol >= 0.0f ? Config.AbsTol : AbsTol;
    std::optional<std::string> Diff = compareOutputs(Ref, Opt, Rel, Abs);
    EXPECT_FALSE(Diff.has_value()) << "config " << Config.Name << ": " << *Diff;
    if (!Config.BitIdenticalTo.empty()) {
      auto Base = ByName.find(Config.BitIdenticalTo);
      ASSERT_NE(Base, ByName.end()) << Config.Name;
      std::optional<std::string> Exact =
          compareOutputs(Base->second, Opt, 0.0f, 0.0f);
      EXPECT_FALSE(Exact.has_value())
          << Config.BitIdenticalTo << " vs " << Config.Name
          << " (bit-identity): " << *Exact;
    }
    ByName.emplace(Config.Name, std::move(Opt));
  }
}

} // namespace testutil
} // namespace dnnfusion

#endif // DNNFUSION_TESTS_TESTUTILS_H
