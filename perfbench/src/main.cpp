//===- perfbench/src/main.cpp - The benchmark entry point -----------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one seeded workload through the library's public entry points with
// library defaults, checks every output, and prints the run context, the
// report rows and, as the last line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see METRICS.md). The exit code is non-zero when any operation failed or
// diverged from its reference.
//
//   perfbench --workload single-stream|serve-open|compile-zoo
//             --seed N --seconds S --trace 0|1 [--commit REV]
//             [--work-dir DIR] [--dump-inputs]
//
// One process runs one workload, so peak_rss_mb is that workload's alone
// (run.py --workload all runs them one after the other).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload single-stream|serve-open|"
               "compile-zoo --seed N --seconds S --trace 0|1 "
               "[--commit REV] [--work-dir DIR] "
               "[--dump-inputs]\n",
               Why);
  std::exit(2);
}

const char *const WorkloadNames[] = {"single-stream", "serve-open",
                                     "compile-zoo"};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      O.Workload = Value();
    } else if (A == "--seed") {
      char *End = nullptr;
      std::string V = Value();
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      char *End = nullptr;
      std::string V = Value();
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0) || O.Seconds > 600)
        usage("--seconds takes a number in (0, 600]");
      HaveSeconds = true;
    } else if (A == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--commit") {
      O.Commit = Value();
    } else if (A == "--work-dir") {
      O.WorkDir = Value();
    } else if (A == "--dump-inputs") {
      O.DumpInputs = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (!O.DumpInputs && (!HaveSeed || !HaveSeconds || !HaveTrace))
    usage("--seed, --seconds and --trace are required");
  return O;
}

/// Either knob changes the program being measured.
void refuseAlteredProgram() {
  for (const char *Var :
       {"DNNFUSION_FAULT_SPEC", "DNNFUSION_FORCE_KERNEL_LEVEL"})
    if (const char *V = std::getenv(Var)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s=%s set: it changes "
                   "the program being measured (unset it)\n",
                   Var, V);
      std::exit(2);
    }
}

Result runWorkload(const Options &O) {
  if (O.Workload == "single-stream")
    return runSingleStream(O);
  if (O.Workload == "serve-open")
    return runServeOpen(O);
  return runCompileZoo(O);
}

/// Prints the report and returns the JSON line.
std::string report(const Options &O, const Result &R, bool &Complete) {
  for (const std::string &Row : R.Rows)
    std::printf("%s\n", Row.c_str());
  for (const std::string &F : R.Failures)
    std::printf("FAILED %s\n", F.c_str());
  double FailedFrac = R.Attempted
                          ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0;
  std::printf("metric failed_frac = %.6g fraction (failed %lld of %lld "
              "attempted)\n",
              FailedFrac, static_cast<long long>(R.Failed),
              static_cast<long long>(R.Attempted));

  const auto &Names = O.Trace ? perLayerMetrics() : endToEndMetrics();
  const auto &Values = O.Trace ? R.Layers : R.Gated;
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool FirstMetric = true;
  for (const auto &[Name, Unit] : Names) {
    auto It = Values.find(Name);
    if (It == Values.end() || !std::isfinite(It->second.Value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   Name.c_str());
      Complete = false;
      continue;
    }
    const Metric &M = It->second;
    std::printf("metric %s = %.6g %s (n=%lld)\n", Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<long long>(M.Samples));
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Json += std::string(FirstMetric ? "" : ", ") + "\"" + Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    FirstMetric = false;
  }
  Json += "}}";
  return Json;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  bool Known = false;
  for (const char *W : WorkloadNames)
    Known |= O.Workload == W;
  if (!Known)
    usage(("unknown workload " + O.Workload).c_str());
  refuseAlteredProgram();

  if (O.DumpInputs) {
    std::printf("workload %s seed %llu\n", O.Workload.c_str(),
                static_cast<unsigned long long>(O.Seed));
    if (O.Workload == "single-stream")
      dumpSingleStreamInputs(O);
    else if (O.Workload == "serve-open")
      dumpServeOpenInputs(O);
    else
      dumpCompileZooInputs(O);
    return 0;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  printContext(O, O.Workload == "serve-open" ? serveOpenSenders() : 1);
  std::fflush(stdout);
  CpuTicks Before = readCpuTicks();
  Result R = runWorkload(O);
  CpuTicks After = readCpuTicks();
  if (After.Total > Before.Total)
    R.row("host: %.1f%% of CPU time was stolen by the hypervisor during the "
          "run (/proc/stat)",
          100.0 * static_cast<double>(After.Steal - Before.Steal) /
              static_cast<double>(After.Total - Before.Total));
  bool Complete = true;
  std::string Json = report(O, R, Complete);
  std::printf("%s\n", Json.c_str());
  return R.Failed != 0 || R.Attempted == 0 || !Complete ? 1 : 0;
}
