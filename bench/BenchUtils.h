//===- bench/BenchUtils.h - Shared harness for the paper's experiments ---*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the per-table/per-figure bench binaries: compiling
/// every execution configuration the paper compares (the four emulated
/// frameworks, OurB, OurB+, DNNFusion), timing medians, and formatting.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_BENCH_BENCHUTILS_H
#define DNNFUSION_BENCH_BENCHUTILS_H

#include "baselines/FixedPatternFuser.h"
#include "baselines/TasoLike.h"
#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"
#include "ops/OpSchema.h"
#include "runtime/CacheSim.h"
#include "runtime/DeviceModel.h"
#include "runtime/ExecutionContext.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "tensor/TensorUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dnnfusion {
namespace bench {

/// The execution configurations compared across Tables 5/6 and Figures.
enum class Config {
  MnnLike,
  TvmLike,
  TfliteLike,
  PytorchLike,
  OurB,      ///< This runtime, all fusion off.
  OurBPlus,  ///< This runtime + TVM-style fixed-pattern fusion.
  Dnnf,      ///< Full DNNFusion.
};

inline const char *configName(Config C) {
  switch (C) {
  case Config::MnnLike:
    return "MNN-like";
  case Config::TvmLike:
    return "TVM-like";
  case Config::TfliteLike:
    return "TFLite-like";
  case Config::PytorchLike:
    return "PyTorch-like";
  case Config::OurB:
    return "OurB";
  case Config::OurBPlus:
    return "OurB+";
  case Config::Dnnf:
    return "DNNF";
  }
  return "?";
}

/// Compiles \p Build() under configuration \p C.
inline CompiledModel compileConfig(const std::function<Graph()> &Build,
                                   Config C) {
  Graph G = Build();
  auto WithPattern = [&](BaselineFramework F) {
    FusionPlan Plan = fixedPatternFusion(G, F);
    return cantFail(compileModelWithPlan(std::move(G), std::move(Plan)));
  };
  switch (C) {
  case Config::MnnLike:
    return WithPattern(BaselineFramework::MnnLike);
  case Config::TvmLike:
    return WithPattern(BaselineFramework::TvmLike);
  case Config::TfliteLike:
    return WithPattern(BaselineFramework::TfliteLike);
  case Config::PytorchLike:
    return WithPattern(BaselineFramework::PytorchLike);
  case Config::OurB: {
    CompileOptions Opt;
    Opt.EnableGraphRewriting = false;
    Opt.EnableFusion = false;
    Opt.EnableOtherOpts = false;
    return cantFail(compileModel(std::move(G), Opt));
  }
  case Config::OurBPlus:
    return WithPattern(BaselineFramework::TvmLike);
  case Config::Dnnf:
    return cantFail(compileModel(std::move(G), CompileOptions()));
  }
  return cantFail(compileModel(std::move(G), CompileOptions()));
}

/// Deterministic random inputs for \p M.
inline std::vector<Tensor> makeInputs(const CompiledModel &M, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Inputs;
  for (NodeId Id : M.InputIds) {
    Tensor T(M.G.node(Id).OutShape);
    fillRandom(T, R, 0.2f, 1.0f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

/// Median wall time of 3 runs (after one warm-up).
inline double medianLatencyMs(const CompiledModel &M) {
  ExecutionContext E(M);
  std::vector<Tensor> Inputs = makeInputs(M, 11);
  E.run(Inputs); // Warm-up.
  std::vector<double> Times;
  for (int I = 0; I < 3; ++I) {
    WallTimer T;
    E.run(Inputs);
    Times.push_back(T.millis());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

inline std::string fmtMs(double Ms) { return formatString("%.2f", Ms); }
inline std::string fmtMb(int64_t Bytes) {
  return formatString("%.2f", static_cast<double>(Bytes) / 1048576.0);
}
inline std::string fmtCount(int64_t V) {
  return formatString("%lld", static_cast<long long>(V));
}
inline std::string fmtRatio(double V) { return formatString("%.2fx", V); }

inline void printHeading(const char *Title, const char *Detail) {
  std::printf("\n==== %s ====\n%s\n\n", Title, Detail);
}

} // namespace bench
} // namespace dnnfusion

#endif // DNNFUSION_BENCH_BENCHUTILS_H
