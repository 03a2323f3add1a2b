//===- runtime/DeviceModel.h - Roofline device models --------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Calibrated roofline device models substituting for the paper's physical
/// phones: per fused kernel,
///   t = launch_overhead + max(flops / peak_flops, bytes / bandwidth)
/// with block-local scratch traffic charged at cache bandwidth. The three
/// terms are exactly the effects the paper attributes GPU-side fusion
/// gains to (kernel-launch reduction, intermediate-traffic reduction,
/// utilization increase), so latency *ratios* between fusion strategies —
/// the quantity Tables 6 and Figures 7/9/10 compare — carry over.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_DEVICEMODEL_H
#define DNNFUSION_RUNTIME_DEVICEMODEL_H

#include "runtime/ModelCompiler.h"

#include <string>
#include <vector>

namespace dnnfusion {

/// One modelled processor.
struct DeviceProfile {
  std::string Name;
  /// Achievable (not theoretical-peak) GFLOP/s on DNN kernels.
  double GFlops = 20.0;
  /// Main-memory bandwidth in GB/s.
  double MemGBps = 10.0;
  /// On-chip (cache) bandwidth in GB/s for block-local scratch.
  double CacheGBps = 60.0;
  /// Per-kernel dispatch cost in milliseconds (GPU kernel launch / CPU
  /// parallel-region scheduling).
  double LaunchOverheadMs = 0.002;
  bool IsGpu = false;
};

/// Modelled end-to-end latency of one inference of \p Model on \p Device.
double modelLatencyMs(const CompiledModel &Model, const DeviceProfile &Device);

/// Modelled utilization (Figure 9a): busy time (compute/memory work)
/// divided by total time including dispatch overheads, in percent.
double modelUtilizationPercent(const CompiledModel &Model,
                               const DeviceProfile &Device);

/// Device presets scaled from the SoCs' public specifications.
DeviceProfile snapdragon865Cpu(); ///< Galaxy S20, Kryo 585, 8 threads.
DeviceProfile snapdragon865Gpu(); ///< Galaxy S20, Adreno 650 (fp16).
DeviceProfile snapdragon855Cpu(); ///< Galaxy S10, Kryo 485.
DeviceProfile snapdragon855Gpu(); ///< Galaxy S10, Adreno 640.
DeviceProfile kirin980Cpu();      ///< Honor Magic 2.
DeviceProfile kirin980Gpu();      ///< Honor Magic 2, Mali-G76.

/// All six presets (portability sweep).
std::vector<DeviceProfile> allDeviceProfiles();

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_DEVICEMODEL_H
