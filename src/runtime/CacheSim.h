//===- runtime/CacheSim.h - Cache and TLB simulation --------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative LRU cache-hierarchy simulator plus a TLB model,
/// substituting for the Snapdragon Profiler counters in Figure 8. The
/// executor's buffer-level access ranges (inputs read, outputs written,
/// scratch reused) drive it; because fusion removes whole intermediate
/// buffers from the trace, the simulated miss counts reproduce the
/// relative cache behaviour the paper measures on hardware.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_CACHESIM_H
#define DNNFUSION_RUNTIME_CACHESIM_H

#include "runtime/ExecutionContext.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dnnfusion {

/// Geometry of one cache level.
struct CacheLevelConfig {
  std::string Name;
  int64_t SizeBytes = 32 * 1024;
  int Associativity = 4;
  int LineBytes = 64;
};

/// A hierarchy of inclusive set-associative LRU caches.
class CacheSim {
public:
  explicit CacheSim(std::vector<CacheLevelConfig> Levels);

  /// Touches [Addr, Addr + Bytes): one probe per line. A miss at level i
  /// probes level i+1.
  void access(uint64_t Addr, int64_t Bytes);

  int numLevels() const { return static_cast<int>(Levels.size()); }
  const std::string &levelName(int L) const { return Levels[static_cast<size_t>(L)].Name; }
  int64_t misses(int Level) const { return MissCount[static_cast<size_t>(Level)]; }
  int64_t accesses(int Level) const { return AccessCount[static_cast<size_t>(Level)]; }

private:
  struct Level {
    int64_t NumSets;
    int Assoc;
    int LineBytes;
    /// Tags per set (way-ordered, index 0 = most recent).
    std::vector<std::vector<uint64_t>> Sets;
  };

  /// Returns true on hit.
  bool probe(Level &L, uint64_t Addr);

  std::vector<CacheLevelConfig> Levels;
  std::vector<Level> State;
  std::vector<int64_t> MissCount;
  std::vector<int64_t> AccessCount;
};

/// Cache geometry presets for the paper's devices.
std::vector<CacheLevelConfig> mobileCpuCacheConfig();
std::vector<CacheLevelConfig> mobileGpuCacheConfig();
/// TLBs are modelled as caches of page-granular "lines".
std::vector<CacheLevelConfig> mobileCpuTlbConfig();

/// Replays the buffer-level access trace of one inference of \p Model
/// through \p Cache (addresses come from the memory plan's virtual
/// regions).
void simulateModelTraffic(const CompiledModel &Model, CacheSim &Cache);

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_CACHESIM_H
