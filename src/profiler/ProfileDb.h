//===- profiler/ProfileDb.h - Profiling result database ------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling database of paper §4.3/§5.3: measured latencies of fused
/// operator combinations, keyed by the block's structural signature
/// (operator kinds + attributes + shapes). Pre-computing it is what
/// collapses the Profiling phase of compilation in Figure 9b. Persisted as
/// a key=value text file whose values round-trip to the measured doubles.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_PROFILER_PROFILEDB_H
#define DNNFUSION_PROFILER_PROFILEDB_H

#include <map>
#include <string>

namespace dnnfusion {

/// Latency store keyed by block signature.
class ProfileDb {
public:
  /// Returns true and fills \p LatencyMs on a hit.
  bool lookup(const std::string &Signature, double &LatencyMs) const;

  /// Inserts or overwrites an entry.
  void record(const std::string &Signature, double LatencyMs);

  int size() const { return static_cast<int>(Entries.size()); }
  int hits() const { return Hits; }
  int misses() const { return Misses; }

  /// Loads entries from \p Path; returns false when the file is absent.
  bool load(const std::string &Path);
  /// Persists all entries to \p Path.
  bool store(const std::string &Path) const;

private:
  std::map<std::string, double> Entries;
  mutable int Hits = 0;
  mutable int Misses = 0;
};

} // namespace dnnfusion

#endif // DNNFUSION_PROFILER_PROFILEDB_H
