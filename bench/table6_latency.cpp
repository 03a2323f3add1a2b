//===- bench/table6_latency.cpp - Paper Table 6 ---------------------------------------===//
//
// Inference latency for all 15 models under the four emulated frameworks,
// OurB (fusion off), OurB+ (fixed-pattern fusion), and DNNFusion.
// CPU latency is measured on the host; GPU latency comes from the
// calibrated Adreno-650 roofline device model (DESIGN.md §2).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

int main() {
  printHeading(
      "Table 6: inference latency (ms)",
      "CPU columns: measured medians on this host. GPU columns: modeled on "
      "the Snapdragon 865 (Adreno 650) roofline profile.");
  const Config Configs[] = {Config::MnnLike, Config::TvmLike,
                            Config::TfliteLike, Config::PytorchLike,
                            Config::OurB, Config::OurBPlus, Config::Dnnf};
  std::vector<std::string> Header = {"Model", "#FLOPS(M)"};
  for (Config C : Configs) {
    Header.push_back(std::string(configName(C)) + " cpu");
    Header.push_back(std::string(configName(C)) + " gpu");
  }
  Header.push_back("DNNF/OurB+");
  TablePrinter T(Header);
  DeviceProfile Gpu = snapdragon865Gpu();

  for (const ModelZooEntry &E : modelZoo()) {
    std::vector<std::string> Row = {E.Info.Name};
    double OurBPlusCpu = 0, DnnfCpu = 0;
    bool First = true;
    for (Config C : Configs) {
      CompiledModel M = compileConfig(E.Build, C);
      if (First) {
        Row.push_back(formatString(
            "%.1f", static_cast<double>(M.totalFlops()) / 1e6));
        First = false;
      }
      double CpuMs = medianLatencyMs(M);
      double GpuMs = modelLatencyMs(M, Gpu);
      if (C == Config::OurBPlus)
        OurBPlusCpu = CpuMs;
      if (C == Config::Dnnf)
        DnnfCpu = CpuMs;
      Row.push_back(fmtMs(CpuMs));
      Row.push_back(fmtMs(GpuMs));
    }
    Row.push_back(fmtRatio(OurBPlusCpu / DnnfCpu));
    T.addRow(Row);
    std::fflush(stdout);
  }
  T.print();
  std::printf(
      "\nExpected shape (paper): DNNF fastest everywhere; the GPU-modeled "
      "gap is wider than the CPU gap (launch overhead + intermediate "
      "traffic dominate there). CPU-measured gaps on this desktop-class "
      "host are muted relative to the paper's phones (see EXPERIMENTS.md).\n");
  return 0;
}
