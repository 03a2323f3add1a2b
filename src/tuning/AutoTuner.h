//===- tuning/AutoTuner.h - Genetic-algorithm kernel tuner ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The genetic-algorithm auto-tuner of the underlying runtime (paper
/// §5.3/Figure 9b, inherited from PatDNN): searches the blocking
/// parameters (PackMR, PackNR) of the packed GEMM kernel against measured
/// runtime. Its wall time is the Tuning component of compilation time.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_TUNING_AUTOTUNER_H
#define DNNFUSION_TUNING_AUTOTUNER_H

#include "ops/Kernels.h"
#include "support/Rng.h"

#include <vector>

namespace dnnfusion {

/// Outcome of one tuning run.
struct TuneResult {
  KernelConfig Best;
  double BestMs = 0.0;
  double BaselineMs = 0.0; ///< Default-config time, for speedup reporting.
  int Evaluations = 0;
  double WallMs = 0.0;
};

/// GA search settings.
struct TuneOptions {
  int Population = 10;
  int Generations = 6;
  float MutationRate = 0.3f;
  int MeasureRepeats = 2;
  uint64_t Seed = 7;
};

/// Tunes the packed GEMM kernel's blocking parameters for a [M,K] x [K,N]
/// problem, with the weights prepacked outside the timer (the serving hot
/// path).
TuneResult tuneMatmul(int64_t M, int64_t N, int64_t K,
                      const TuneOptions &Options = {});

} // namespace dnnfusion

#endif // DNNFUSION_TUNING_AUTOTUNER_H
