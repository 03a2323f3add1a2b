//===- bench/fig7_breakdown.cpp - Paper Figure 7 ---------------------------------------===//
//
// Optimization breakdown: speedup over OurB when enabling graph rewriting
// (GR), fusion (Fuse), and the other fusion-related optimizations (Other)
// incrementally, plus the no-rewriting ablation (Fuse+Other), on CPU
// (measured) and the modeled mobile GPU.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace dnnfusion;
using namespace dnnfusion::bench;

namespace {

CompiledModel compileVariant(const std::function<Graph()> &Build, bool Gr,
                             bool Fuse, bool Other) {
  CompileOptions Opt;
  Opt.EnableGraphRewriting = Gr;
  Opt.EnableFusion = Fuse;
  Opt.EnableOtherOpts = Other;
  return cantFail(compileModel(Build(), Opt));
}

} // namespace

int main() {
  printHeading("Figure 7: optimization breakdown (speedup over OurB)",
               "GR = graph rewriting, Fuse = operator fusion, Other = "
               "intra/inter-block data-movement optimizations.");
  struct Variant {
    const char *Name;
    bool Gr, Fuse, Other;
  };
  const Variant Variants[] = {
      {"GR", true, false, false},
      {"GR+Fuse", true, true, false},
      {"GR+Fuse+Other", true, true, true},
      {"Fuse+Other", false, true, true},
  };
  DeviceProfile Gpu = snapdragon865Gpu();
  DeviceProfile Cpu = snapdragon865Cpu();

  for (const char *Target : {"cpu (measured)", "gpu (modeled)"}) {
    bool IsGpu = std::string(Target).rfind("gpu", 0) == 0;
    std::vector<std::string> Header = {"Model"};
    for (const Variant &V : Variants)
      Header.push_back(V.Name);
    TablePrinter T(Header);
    for (const char *Name :
         {"EfficientNet-B0", "YOLO-V4", "S3D", "GPT-2"}) {
      auto Build = [&] { return buildModel(Name); };
      CompiledModel Base = compileVariant(Build, false, false, false);
      double BaseMs = IsGpu ? modelLatencyMs(Base, Gpu)
                            : medianLatencyMs(Base);
      (void)Cpu;
      std::vector<std::string> Row = {Name};
      for (const Variant &V : Variants) {
        CompiledModel M = compileVariant(Build, V.Gr, V.Fuse, V.Other);
        double Ms = IsGpu ? modelLatencyMs(M, Gpu) : medianLatencyMs(M);
        Row.push_back(fmtRatio(BaseMs / Ms));
      }
      T.addRow(Row);
      std::fflush(stdout);
    }
    std::printf("-- %s --\n", Target);
    T.print();
    std::printf("\n");
  }
  std::printf("Expected shape (paper): each increment helps; Fuse is the "
              "largest single contributor; GR's hidden value shows in the "
              "GR+Fuse+Other vs Fuse+Other gap (rewriting enables extra "
              "fusion).\n");
  return 0;
}
