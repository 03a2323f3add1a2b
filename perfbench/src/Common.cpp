//===- perfbench/src/Common.cpp - Shared benchmark machinery --------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ops/KernelRegistry.h"
#include "support/Retry.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/TensorUtils.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace dnnfusion;

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      // Compile phases (per set-up on single-stream/serve-open, per pass on
      // compile-zoo).
      {"graph.validate_ms", "ms"},
      {"core.rewrite_ms", "ms"},
      {"core.plan_ms", "ms"},
      {"core.codegen_ms", "ms"},
      {"core.schedule_ms", "ms"},
      {"runtime.memplan_ms", "ms"},
      {"runtime.compile_other_ms", "ms"},
      {"runtime.compile_ms", "ms"},
      // Compilation cache.
      {"serialize.fingerprint_ms", "ms"},
      {"serialize.store_ms", "ms"},
      {"serialize.read_ms", "ms"},
      {"serialize.deserialize_ms", "ms"},
      {"serialize.lookup_ms", "ms"},
      {"serialize.artifact_mb", "MB"},
      {"serialize.hit_ratio", "ratio"},
      // Compiler outcome counts.
      {"core.rewrite_applications", "count"},
      {"core.flops_after_frac", "fraction"},
      {"core.blocks", "count"},
      {"core.fusion_rate", "ratio"},
      {"core.yellow_accept_ratio", "ratio"},
      // Execution by step kind (per round).
      {"ops.conv_ms", "ms"},
      {"ops.conv_gflops", "GFLOP/s"},
      {"ops.attention_ms", "ms"},
      {"ops.attention_gflops", "GFLOP/s"},
      {"ops.layernorm_ms", "ms"},
      {"ops.gemm_ms", "ms"},
      {"ops.gemm_gflops", "GFLOP/s"},
      {"ops.expression_ms", "ms"},
      {"ops.other_ms", "ms"},
      {"ops.program_steps", "count"},
      {"ops.treewalk_steps", "count"},
      {"ops.packed_calls", "count"},
      {"ops.direct_calls", "count"},
      {"ops.prepack_hit_ratio", "ratio"},
      {"ops.epilogue_steps", "count"},
      {"ops.avx2_calls", "count"},
      {"ops.scalar_calls", "count"},
      {"ops.bytes_moved_mb", "MB"},
      // Runtime.
      {"runtime.exec_ms", "ms"},
      {"runtime.session_overhead_ms", "ms"},
      {"runtime.block_overlap", "ratio"},
      {"runtime.peak_arena_mb", "MB"},
      // Serving.
      {"serving.queue_wait_ms", "ms"},
      {"serving.batch_size_mean", "req"},
      {"serving.exec_ms", "ms"},
      {"serving.other_ms", "ms"},
      {"serving.served_ratio", "ratio"},
      {"serving.shed", "count"},
      {"serving.degraded", "count"},
      {"support.retries", "count"},
      // The benchmark itself.
      {"serving.generator_lag_ms_p99", "ms"},
      {"bench.trace_overhead_frac", "fraction"},
  };
  return Names;
}

static std::string
unitOf(const std::vector<std::pair<std::string, std::string>> &L,
       const std::string &Name) {
  for (const auto &[N, U] : L)
    if (N == Name)
      return U;
  std::fprintf(stderr, "perfbench: unknown metric '%s'\n", Name.c_str());
  std::abort();
}

Result::Result() {
  for (const auto &[Name, Unit] : perLayerMetrics())
    Layers[Name] = Metric{0.0, Unit, 0};
}

void Result::gated(const std::string &Name, double Value, int64_t Samples) {
  Gated[Name] = Metric{Value, unitOf(endToEndMetrics(), Name), Samples};
}

void Result::layer(const std::string &Name, double Value, int64_t Samples) {
  Layers[Name] = Metric{Value, unitOf(perLayerMetrics(), Name), Samples};
}

void Result::row(const char *Fmt, ...) {
  char Buf[1024];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Rows.emplace_back(Buf);
}

void Result::fail(const std::string &Message) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Message);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

bool percentileSupported(size_t N, double P) {
  return static_cast<double>(N) * std::min(P, 100.0 - P) / 100.0 >=
         10.0 - 1e-9;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

void setupRow(Result &R, const std::vector<double> &SetupS) {
  if (SetupS.empty())
    return;
  R.row("set-up: n=%zu min %.4f s median %.4f s max %.4f s (first, before "
        "the window: %.4f s)",
        SetupS.size(), *std::min_element(SetupS.begin(), SetupS.end()),
        median(SetupS), *std::max_element(SetupS.begin(), SetupS.end()),
        SetupS.front());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int32_t Tracer::begin(const char *Name, int32_t Parent, int64_t Request) {
  if (!Enabled)
    return -1;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(Span{Name, Now, Now, Parent, Request});
  return static_cast<int32_t>(Spans.size() - 1);
}

void Tracer::end(int32_t Id) {
  if (Id < 0)
    return;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

double Tracer::ms(int32_t Id) const {
  if (Id < 0)
    return 0.0;
  std::lock_guard<std::mutex> Lock(Mutex);
  const Span &S = Spans[static_cast<size_t>(Id)];
  return static_cast<double>(S.EndNs - S.StartNs) / 1e6;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"request\":%" PRId64
                 "}\n",
                 I, S.Name, S.StartNs, S.EndNs, S.Parent, S.Request);
  }
  return std::fclose(F) == 0;
}

void Tracer::save(const Options &O) const {
  if (!Enabled)
    return;
  std::string Path = O.WorkDir + "/spans-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".jsonl";
  if (!writeJsonLines(Path))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 Path.c_str());
}

//===----------------------------------------------------------------------===//
// Inputs, outputs, classification
//===----------------------------------------------------------------------===//

uint64_t subSeed(uint64_t Seed, uint64_t Tag) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull ^ (Tag + 0x632be59bd9b4e019ull));
  R.next();
  return R.next();
}

std::vector<Tensor> makeInputs(const Graph &G, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Inputs;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead || N.Kind != OpKind::Input)
      continue;
    Tensor T(N.OutShape);
    fillRandom(T, R, 0.2f, 1.0f);
    Inputs.push_back(std::move(T));
  }
  return Inputs;
}

uint64_t digest(const std::vector<Tensor> &Ts, uint64_t H) {
  for (const Tensor &T : Ts) {
    const auto *Bytes = reinterpret_cast<const unsigned char *>(T.data());
    for (size_t I = 0, E = T.byteSize(); I < E; ++I) {
      H ^= Bytes[I];
      H *= 1099511628211ull;
    }
  }
  return H;
}

std::string compareOutputs(const std::vector<Tensor> &Got,
                           const std::vector<Tensor> &Want, float Tol) {
  char Buf[256];
  if (Got.size() != Want.size()) {
    std::snprintf(Buf, sizeof(Buf), "%zu outputs, expected %zu", Got.size(),
                  Want.size());
    return Buf;
  }
  for (size_t O = 0; O < Got.size(); ++O) {
    if (!(Got[O].shape() == Want[O].shape()))
      return "output " + std::to_string(O) + " shape " +
             Got[O].shape().toString() + ", expected " +
             Want[O].shape().toString();
    for (int64_t I = 0, E = Got[O].numElements(); I < E; ++I) {
      float A = Got[O].at(I), B = Want[O].at(I);
      bool Same = Tol == 0.0f
                      ? std::memcmp(&A, &B, sizeof(float)) == 0
                      : std::fabs(A - B) <= Tol * (1.0f + std::fabs(B));
      if (!Same) {
        std::snprintf(Buf, sizeof(Buf),
                      "output %zu element %lld: %.9g vs expected %.9g "
                      "(tolerance %g)",
                      O, static_cast<long long>(I), static_cast<double>(A),
                      static_cast<double>(B), static_cast<double>(Tol));
        return Buf;
      }
    }
  }
  return "";
}

bool hasFusedTransformerSteps(const CompiledModel &M) {
  for (const CompiledBlock &B : M.Blocks)
    for (const CompiledStep &S : B.Steps)
      if (S.K == CompiledStep::Kind::FusedAttention ||
          S.K == CompiledStep::Kind::FusedLayerNorm)
        return true;
  return false;
}

BlockClass classifyBlock(const CompiledBlock &B) {
  bool Attn = false, Norm = false, Conv = false, Gemm = false, Ref = false;
  for (const CompiledStep &S : B.Steps) {
    switch (S.K) {
    case CompiledStep::Kind::FusedAttention:
      Attn = true;
      break;
    case CompiledStep::Kind::FusedLayerNorm:
      Norm = true;
      break;
    case CompiledStep::Kind::RefKernel:
      if (S.Op == OpKind::Conv)
        Conv = true;
      else if (S.Op == OpKind::MatMul || S.Op == OpKind::Gemm)
        Gemm = true;
      else
        Ref = true;
      break;
    case CompiledStep::Kind::Expression:
      break;
    }
  }
  if (Attn)
    return BlockClass::Attention;
  if (Norm)
    return BlockClass::LayerNorm;
  if (Conv)
    return BlockClass::Conv;
  if (Gemm)
    return BlockClass::Gemm;
  if (Ref)
    return BlockClass::OtherRef;
  return BlockClass::Expression;
}

int64_t retriesSoFar() {
  int64_t N = 0;
  for (const RetrySiteStats &S : retryStatsSnapshot())
    N += S.RetriedThenSucceeded + S.Exhausted;
  return N;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux: kilobytes.
}

CpuTicks readCpuTicks() {
  CpuTicks T;
  std::ifstream In("/proc/stat");
  std::string Cpu;
  if (!(In >> Cpu) || Cpu != "cpu")
    return T;
  // user nice system idle iowait irq softirq steal ...
  for (int I = 0; I < 8; ++I) {
    uint64_t V = 0;
    if (!(In >> V))
      return CpuTicks();
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

static std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        std::string V = Line.substr(Colon + 1);
        V.erase(0, V.find_first_not_of(' '));
        return V;
      }
    }
  return "unknown";
}

void printContext(const Options &O, unsigned SenderThreads) {
  uint32_t Mask = dispatchFeatureMask();
  std::string Features;
  if (Mask & CpuFeatureAvx2)
    Features += "avx2";
  if (Mask & CpuFeatureFma)
    Features += Features.empty() ? "fma" : "+fma";
  if (Features.empty())
    Features = "none";
#ifdef NDEBUG
  const char *Ndebug = "yes";
#else
  const char *Ndebug = "no";
#endif
  std::printf("# context nproc=%u cpu=\"%s\" dispatch_features=0x%x(%s) "
              "auto_kernel_tier=%s ndebug=%s global_pool_threads=%u "
              "sender_threads=%u seed=%llu commit=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(), Mask,
              Features.c_str(),
              kernelLevelName(effectiveKernelLevel(KernelConfig())), Ndebug,
              ThreadPool::global().numThreads(), SenderThreads,
              static_cast<unsigned long long>(O.Seed), O.Commit.c_str());
}

} // namespace perfbench
