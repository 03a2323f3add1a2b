//===- perfbench/src/CompileZoo.cpp - Cold and warm compiles --------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// compile-zoo: one thread compiles all 15 zoo models through compileModel
// with the library defaults plus a compilation-cache directory: cold into
// an empty directory (miss, full pipeline, store), then warm (cache hit),
// over repeated passes. Every pass uses a fresh directory and a seeded
// model order. Set-up (building the 15 graphs and one warm-up cold+warm
// compile) runs once before the passes and twice after each of them, so
// the set-up samples come from the same stretch of time as the compile
// samples; the median of all of them is reported.
//
// latency_ms is the per-model cold + warm pair; compile_cold_ms and
// compile_warm_ms are reported beside it.
//
// Correctness: every cold compile must miss and every warm compile hit;
// after the measured passes (outside the timed window and after the
// memory high-water mark is read) each model is compiled cold and warm
// once more and both programs run on the model's seeded input — the
// outputs must be bit-identical.
//
//===----------------------------------------------------------------------===//

#include "LayerTrace.h"
#include "Workloads.h"

#include "models/ModelZoo.h"
#include "serialize/CompilationCache.h"
#include "serialize/ModelSerializer.h"
#include "support/FileIO.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unistd.h>

using namespace dnnfusion;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// Set-ups repeated after every measured pass of the untraced run.
constexpr int SetUpsPerPass = 2;
/// Passes measured even when --seconds is shorter.
constexpr int MinPasses = 2;

struct ZooModel {
  std::string Name;
  Graph G;
  std::vector<Tensor> Inputs;
  std::vector<double> ColdMs, WarmMs;
};

/// The seeded model order of pass \p Pass.
std::vector<size_t> passOrder(uint64_t Seed, int Pass, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(subSeed(Seed, 1000 + static_cast<uint64_t>(Pass)));
  for (size_t I = N - 1; I > 0; --I)
    std::swap(Order[I], Order[R.nextBelow(I + 1)]);
  return Order;
}

CompileOptions cached(const std::string &Dir) {
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  return Opt;
}

/// Compiles a copy of \p Z's graph under \p Dir's cache and checks it
/// missed (\p WantHit false) or hit. Returns the compile time in ms, or a
/// negative value on failure; \p Out receives the model when non-null.
double timedCompile(const ZooModel &Z, const std::string &Dir, bool WantHit,
                    Result &R, Tracer &T, int32_t *SpanOut = nullptr,
                    CompiledModel *Out = nullptr) {
  Graph Copy = Z.G;
  ++R.Attempted;
  int32_t Span = T.begin(WantHit ? "runtime.compileModel.warm"
                                 : "runtime.compileModel.cold");
  Clock::time_point T0 = Clock::now();
  Expected<CompiledModel> M = compileModel(std::move(Copy), cached(Dir));
  double Ms = msBetween(T0, Clock::now());
  T.end(Span);
  if (SpanOut)
    *SpanOut = Span;
  if (!M.ok()) {
    R.fail(Z.Name + ": compile failed: " + M.status().toString());
    return -1.0;
  }
  if (M->CacheHit != WantHit) {
    R.fail(Z.Name + (WantHit ? ": warm compile missed the cache"
                             : ": cold compile hit an empty cache"));
    return -1.0;
  }
  if (Out)
    *Out = std::move(*M);
  return Ms;
}

/// Builds the graphs and warms up. Returns set-up seconds (input
/// generation excluded). The compile samples of a previous set-up carry
/// over to the fresh graphs.
double setUp(std::vector<ZooModel> &Zoo, uint64_t Seed,
             const std::string &Dir, Result &R) {
  std::vector<std::vector<double>> ColdMs, WarmMs;
  for (ZooModel &Z : Zoo) {
    ColdMs.push_back(std::move(Z.ColdMs));
    WarmMs.push_back(std::move(Z.WarmMs));
  }
  Zoo.clear();
  double Excluded = 0.0;
  Clock::time_point Start = Clock::now();
  for (const ModelZooEntry &E : modelZoo()) {
    ZooModel Z;
    Z.Name = E.Info.Name;
    Z.G = E.Build();
    Clock::time_point GenStart = Clock::now();
    Z.Inputs = makeInputs(Z.G, subSeed(Seed, 300 + Zoo.size()));
    Excluded += msBetween(GenStart, Clock::now());
    Zoo.push_back(std::move(Z));
  }
  // Warm-up: one cold and one warm compile of the first model.
  std::string WarmDir = Dir + "/warmup";
  Tracer Off(false);
  bool Ok = timedCompile(Zoo.front(), WarmDir, false, R, Off) >= 0 &&
            timedCompile(Zoo.front(), WarmDir, true, R, Off) >= 0;
  double Seconds = msBetween(Start, Clock::now()) / 1e3 - Excluded / 1e3;
  std::error_code Ec;
  fs::remove_all(WarmDir, Ec);
  for (size_t I = 0; I < ColdMs.size() && I < Zoo.size(); ++I) {
    Zoo[I].ColdMs = std::move(ColdMs[I]);
    Zoo[I].WarmMs = std::move(WarmMs[I]);
  }
  return Ok ? Seconds : -1.0;
}

/// Totals of the warm-compile and cache-read replays over the traced passes.
struct CacheTotals {
  double LookupMs = 0.0, ReadMs = 0.0, DeserializeMs = 0.0;
  double WarmMs = 0.0, WarmValidateMs = 0.0, WarmFingerprintMs = 0.0;
  int64_t ArtifactBytes = 0;
  int64_t Hits = 0, WarmCompiles = 0;
};

/// One pass: cold compiles of every model into a fresh \p Dir, then warm.
/// With tracing, each compile is followed by its phase and cache replay.
void runPass(std::vector<ZooModel> &Zoo, const std::vector<size_t> &Order,
             const std::string &Dir, Result &R, Tracer &T,
             CompileTotals *Tot, CacheTotals *Cache) {
  for (size_t I : Order) {
    ZooModel &Z = Zoo[I];
    CompiledModel M;
    int32_t Span = -1;
    double Ms = timedCompile(Z, Dir, false, R, T, &Span, Tot ? &M : nullptr);
    if (Ms < 0)
      continue;
    Z.ColdMs.push_back(Ms);
    if (!Tot)
      continue;
    ++Tot->Compiles;
    Tot->CompileMs += T.ms(Span);
    Tot->countOutcome(M);
    replayCompilePhases(Z.G, T, Span, *Tot);
    int32_t Id = T.begin("serialize.fingerprint", Span);
    uint64_t Key = CompilationCache::fingerprint(Z.G, cached(Dir));
    T.end(Id);
    Tot->FingerprintMs += T.ms(Id);
    Id = T.begin("serialize.store", Span);
    Status Stored = CompilationCache(Dir + "-replay").store(Key, M);
    T.end(Id);
    Tot->StoreMs += T.ms(Id);
    if (!Stored.ok()) {
      ++R.Attempted;
      R.fail(Z.Name + ": replayed store failed: " + Stored.toString());
    }
  }
  if (Cache)
    for (const CacheEntryInfo &E : CompilationCache(Dir).entries())
      Cache->ArtifactBytes += E.Bytes;

  for (size_t I : Order) {
    ZooModel &Z = Zoo[I];
    int32_t Span = -1;
    double Ms = timedCompile(Z, Dir, true, R, T, &Span);
    if (Cache) {
      ++Cache->WarmCompiles;
      Cache->Hits += Ms >= 0;
    }
    if (Ms < 0)
      continue;
    Z.WarmMs.push_back(Ms);
    if (!Cache)
      continue;
    Cache->WarmMs += T.ms(Span);
    int32_t Id = T.begin("graph.validate", Span);
    (void)Z.G.validate();
    T.end(Id);
    Cache->WarmValidateMs += T.ms(Id);
    Id = T.begin("serialize.fingerprint", Span);
    uint64_t Key = CompilationCache::fingerprint(Z.G, cached(Dir));
    T.end(Id);
    Cache->WarmFingerprintMs += T.ms(Id);
    CompilationCache C(Dir);
    Id = T.begin("serialize.lookup", Span);
    Expected<CompiledModel> Hit = C.lookup(Key);
    T.end(Id);
    Cache->LookupMs += T.ms(Id);
    Id = T.begin("serialize.read", Span);
    Expected<std::string> Bytes = readFileBytes(C.pathForKey(Key));
    T.end(Id);
    Cache->ReadMs += T.ms(Id);
    if (!Hit.ok() || !Bytes.ok()) {
      ++R.Attempted;
      R.fail(Z.Name + ": replayed cache read failed");
      continue;
    }
    Id = T.begin("serialize.deserialize", Span);
    Expected<CompiledModel> Loaded = deserializeCompiledModel(*Bytes);
    T.end(Id);
    Cache->DeserializeMs += T.ms(Id);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::remove_all(Dir + "-replay", Ec);
}

/// Passes until \p Seconds have passed (and MinPasses ran). With \p SetupS,
/// SetUpsPerPass fresh set-ups follow every pass and their times are
/// appended to it. Returns the passes, or -1 when a set-up failed.
int measurePasses(std::vector<ZooModel> &Zoo, uint64_t Seed, int FirstPass,
                  double Seconds, const std::string &Root, Result &R,
                  Tracer &T, CompileTotals *Tot, CacheTotals *Cache,
                  std::vector<double> *SetupS = nullptr) {
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  int Passes = 0;
  while (Passes < MinPasses || Clock::now() < End) {
    int Pass = FirstPass + Passes;
    runPass(Zoo, passOrder(Seed, Pass, Zoo.size()),
            Root + "/pass-" + std::to_string(Pass), R, T, Tot, Cache);
    ++Passes;
    for (int I = 0; SetupS && I < SetUpsPerPass; ++I) {
      double S = setUp(Zoo, Seed, Root, R);
      if (S < 0)
        return -1;
      SetupS->push_back(S);
    }
  }
  return Passes;
}

/// Warm-compiled programs must compute exactly what cold-compiled ones do.
void checkWarmMatchesCold(const std::vector<ZooModel> &Zoo,
                          const std::string &Dir, Result &R) {
  Tracer Off(false);
  for (const ZooModel &Z : Zoo) {
    CompiledModel Cold, Warm;
    if (timedCompile(Z, Dir, false, R, Off, nullptr, &Cold) < 0 ||
        timedCompile(Z, Dir, true, R, Off, nullptr, &Warm) < 0)
      continue;
    ++R.Attempted;
    Expected<std::vector<Tensor>> A = ExecutionContext(Cold).tryRun(Z.Inputs);
    Expected<std::vector<Tensor>> B = ExecutionContext(Warm).tryRun(Z.Inputs);
    if (!A.ok() || !B.ok()) {
      R.fail(Z.Name + ": running the compiled model failed");
      continue;
    }
    std::string Diff = compareOutputs(*B, *A, 0.0f);
    if (!Diff.empty())
      R.fail(Z.Name + ": warm-compiled output differs from cold: " + Diff);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

std::vector<double> medians(const std::vector<ZooModel> &Zoo, bool Warm) {
  std::vector<double> V;
  for (const ZooModel &Z : Zoo)
    V.push_back(median(Warm ? Z.WarmMs : Z.ColdMs));
  return V;
}

} // namespace

void dumpCompileZooInputs(const Options &O) {
  for (int Pass = 0; Pass < 3; ++Pass) {
    std::printf("pass %d order", Pass);
    for (size_t I : passOrder(O.Seed, Pass, modelZoo().size()))
      std::printf(" %zu", I);
    std::printf("\n");
  }
  uint64_t D = 1469598103934665603ull;
  size_t I = 0;
  for (const ModelZooEntry &E : modelZoo())
    D = digest(makeInputs(E.Build(), subSeed(O.Seed, 300 + I++)), D);
  std::printf("inputs %zu models %016llx\n", I,
              static_cast<unsigned long long>(D));
}

Result runCompileZoo(const Options &O) {
  Result R;
  Tracer T(O.Trace);
  std::string Root =
      O.WorkDir + "/compile-zoo-" + std::to_string(static_cast<long>(getpid()));
  std::error_code Ec;
  fs::remove_all(Root, Ec);
  fs::create_directories(Root, Ec);
  if (Ec) {
    ++R.Attempted;
    R.fail("cannot create " + Root + ": " + Ec.message());
    return R;
  }
  int64_t RetriesBefore = retriesSoFar();

  std::vector<ZooModel> Zoo;
  double First = setUp(Zoo, O.Seed, Root, R);
  if (First < 0) {
    fs::remove_all(Root, Ec);
    return R;
  }

  if (!O.Trace) {
    std::vector<double> SetupS = {First};
    int Passes = measurePasses(Zoo, O.Seed, 0, O.Seconds, Root, R, T, nullptr,
                               nullptr, &SetupS);
    if (Passes < 0) {
      fs::remove_all(Root, Ec);
      return R;
    }
    R.gated("peak_rss_mb", peakRssMb(), 1);
    std::vector<double> Cold = medians(Zoo, false), Warm = medians(Zoo, true);
    std::vector<double> Pair;
    for (const ZooModel &Z : Zoo) {
      std::vector<double> Sum;
      for (size_t P = 0; P < Z.ColdMs.size() && P < Z.WarmMs.size(); ++P)
        Sum.push_back(Z.ColdMs[P] + Z.WarmMs[P]);
      Pair.push_back(median(Sum));
    }
    int64_t N = static_cast<int64_t>(Passes) * static_cast<int64_t>(Zoo.size());
    R.gated("latency_ms", geomean(Pair), N);
    R.row("metric compile_cold_ms = %.4f ms (geomean of 15 per-model "
          "medians, %d passes)",
          geomean(Cold), Passes);
    R.row("metric compile_warm_ms = %.4f ms (geomean of 15 per-model "
          "medians, %d passes)",
          geomean(Warm), Passes);
    R.row("warm speed-up over cold (geomean) %.3fx",
          geomean(Cold) / geomean(Warm));
    for (size_t I = 0; I < Zoo.size(); ++I)
      R.row("model %-16s cold %9.3f ms  warm %9.3f ms  cold+warm %9.3f ms  "
            "n=%zu",
            Zoo[I].Name.c_str(), Cold[I], Warm[I], Pair[I],
            Zoo[I].ColdMs.size());
    R.gated("setup_s", median(SetupS), static_cast<int64_t>(SetupS.size()));
    setupRow(R, SetupS);
  } else {
    // Untraced then traced, each over half the time.
    Tracer Off(false);
    int Untraced = measurePasses(Zoo, O.Seed, 0, O.Seconds / 2, Root, R, Off,
                                 nullptr, nullptr);
    std::vector<double> UntracedCold = medians(Zoo, false);
    for (ZooModel &Z : Zoo)
      Z.ColdMs.clear(), Z.WarmMs.clear();
    CompileTotals Tot;
    CacheTotals Cache;
    int Passes = measurePasses(Zoo, O.Seed, Untraced, O.Seconds / 2, Root, R,
                               T, &Tot, &Cache);
    std::vector<double> Ratio;
    std::vector<double> TracedCold = medians(Zoo, false);
    for (size_t I = 0; I < Zoo.size(); ++I)
      Ratio.push_back(TracedCold[I] / UntracedCold[I]);
    const double P = Passes;
    Tot.report(R, P);
    R.layer("serialize.fingerprint_ms", Tot.FingerprintMs / P, Tot.Compiles);
    R.layer("serialize.store_ms", Tot.StoreMs / P, Tot.Compiles);
    R.layer("serialize.lookup_ms", Cache.LookupMs / P, Cache.WarmCompiles);
    R.layer("serialize.read_ms", Cache.ReadMs / P, Cache.WarmCompiles);
    R.layer("serialize.deserialize_ms", Cache.DeserializeMs / P,
            Cache.WarmCompiles);
    R.layer("serialize.artifact_mb",
            static_cast<double>(Cache.ArtifactBytes) / P / (1024.0 * 1024.0));
    R.layer("serialize.hit_ratio",
            Cache.WarmCompiles ? static_cast<double>(Cache.Hits) /
                                     static_cast<double>(Cache.WarmCompiles)
                               : 0.0);
    R.layer("bench.trace_overhead_frac", geomean(Ratio) - 1.0, Tot.Compiles);
    Tot.row(R, "per pass, 15 cold compiles", P);
    R.row("warm (per pass, 15 cache hits): compileModel %.3f ms = validate "
          "%.3f + fingerprint %.3f + lookup %.3f (read %.3f + deserialize "
          "%.3f + other %.3f) + other %.3f",
          Cache.WarmMs / P, Cache.WarmValidateMs / P,
          Cache.WarmFingerprintMs / P, Cache.LookupMs / P, Cache.ReadMs / P,
          Cache.DeserializeMs / P,
          (Cache.LookupMs - Cache.ReadMs - Cache.DeserializeMs) / P,
          (Cache.WarmMs - Cache.WarmValidateMs - Cache.WarmFingerprintMs -
           Cache.LookupMs) /
              P);
    R.row("passes: %d untraced, %d traced", Untraced, Passes);
    R.layer("support.retries",
            static_cast<double>(retriesSoFar() - RetriesBefore));
  }

  checkWarmMatchesCold(Zoo, Root + "/verify", R);
  fs::remove_all(Root, Ec);
  T.save(O);
  return R;
}

} // namespace perfbench
