//===- tuning/AutoTuner.cpp - Genetic-algorithm kernel tuner ----------------------===//

#include "tuning/AutoTuner.h"

#include "ops/KernelRegistry.h"
#include "ops/KernelsGemmPacked.h"
#include "support/Timer.h"
#include "tensor/Tensor.h"
#include "tensor/TensorUtils.h"

#include <algorithm>

using namespace dnnfusion;

namespace {

const int PackMRChoices[] = {1, 2, 4, 6, 8};
const int PackNRChoices[] = {4, 8, 16, 32};

KernelConfig randomConfig(Rng &R) {
  KernelConfig C;
  C.PackMR = PackMRChoices[R.nextBelow(5)];
  C.PackNR = PackNRChoices[R.nextBelow(4)];
  return C;
}

KernelConfig crossover(const KernelConfig &A, const KernelConfig &B, Rng &R) {
  KernelConfig C;
  C.PackMR = R.nextBool() ? A.PackMR : B.PackMR;
  C.PackNR = R.nextBool() ? A.PackNR : B.PackNR;
  return C;
}

void mutate(KernelConfig &C, float Rate, Rng &R) {
  if (R.nextBool(Rate))
    C.PackMR = PackMRChoices[R.nextBelow(5)];
  if (R.nextBool(Rate))
    C.PackNR = PackNRChoices[R.nextBelow(4)];
}

} // namespace

TuneResult dnnfusion::tuneMatmul(int64_t M, int64_t N, int64_t K,
                                 const TuneOptions &Options) {
  WallTimer Total;
  Rng R(Options.Seed);
  Tensor A(Shape({M, K})), B(Shape({K, N})), C(Shape({M, N}));
  fillRandom(A, R);
  fillRandom(B, R);

  TuneResult Result;
  std::vector<float> Packed;
  auto Measure = [&](const KernelConfig &Config) {
    double Best = 0.0;
    int NR = clampPackNR(Config.PackNR);
    // Time the tier production resolves to: the tiers rank panel widths
    // differently, so a scalar-timed winner can lose at AVX2.
    KernelLevel Level = effectiveKernelLevel(Config);
    // The serving hot path keeps constant weights prepacked, so packing
    // stays outside the timed region.
    Packed.resize(static_cast<size_t>(packedPanelElems(K, N, NR)));
    packBPanels(B.data(), N, 1, K, N, NR, Packed.data());
    for (int I = 0; I < Options.MeasureRepeats; ++I) {
      WallTimer T;
      gemmPackedRows(A.data(), K, 1, Packed.data(), C.data(), N, 0, M, N, K,
                     clampPackMR(Config.PackMR), NR, nullptr, Level);
      double Ms = T.millis();
      if (I == 0 || Ms < Best)
        Best = Ms;
    }
    ++Result.Evaluations;
    return Best;
  };

  Result.BaselineMs = Measure(KernelConfig());

  struct Individual {
    KernelConfig Config;
    double Ms;
  };
  std::vector<Individual> Population;
  for (int I = 0; I < Options.Population; ++I) {
    KernelConfig Config = I == 0 ? KernelConfig() : randomConfig(R);
    Population.push_back({Config, Measure(Config)});
  }

  auto ByTime = [](const Individual &X, const Individual &Y) {
    return X.Ms < Y.Ms;
  };
  std::sort(Population.begin(), Population.end(), ByTime);

  for (int Gen = 0; Gen < Options.Generations; ++Gen) {
    // Elitism: keep the top half, refill with mutated crossovers.
    size_t Keep = Population.size() / 2;
    std::vector<Individual> Next(Population.begin(),
                                 Population.begin() + static_cast<long>(Keep));
    while (Next.size() < Population.size()) {
      const KernelConfig &Pa =
          Population[R.nextBelow(Keep ? Keep : 1)].Config;
      const KernelConfig &Pb =
          Population[R.nextBelow(Keep ? Keep : 1)].Config;
      KernelConfig Child = crossover(Pa, Pb, R);
      mutate(Child, Options.MutationRate, R);
      Next.push_back({Child, Measure(Child)});
    }
    Population = std::move(Next);
    std::sort(Population.begin(), Population.end(), ByTime);
  }

  Result.Best = Population.front().Config;
  Result.BestMs = Population.front().Ms;
  Result.WallMs = Total.millis();
  return Result;
}
