//===- serialize/CompilationCache.h - On-disk compile cache ------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk compilation cache (paper Figure 9b's motivation, taken to
/// serving: the planning cost — rewrite search, mapping analysis,
/// profiling-guided plan selection — is paid once per (graph, options)
/// content, not once per process start). compileModel consults it
/// transparently when CompileOptions::CacheDir is set:
///
///   key  = FNV-1a of (format version, serialized graph, compile options)
///   file = <CacheDir>/model-<key>.dnnf   (a saveModel artifact)
///
/// A hit deserializes the artifact (memory plan cross-checked on
/// load) and skips planning entirely. Every failure mode — missing entry,
/// truncated or bit-flipped file, format-version drift — falls back to a
/// clean recompile whose result overwrites the entry; a cache can make a
/// compile slower, never wrong, and never aborted. Writes are atomic
/// (temp + rename), so concurrent processes may share one directory.
///
/// The key deliberately excludes the LatencyOracle: profiling oracles are
/// assumed deterministic for a given profile database. Callers mixing
/// materially different oracles over one cache directory should use one
/// directory per oracle.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERIALIZE_COMPILATIONCACHE_H
#define DNNFUSION_SERIALIZE_COMPILATIONCACHE_H

#include "runtime/ModelCompiler.h"

#include <string>
#include <utility>
#include <vector>

namespace dnnfusion {

/// One on-disk cache artifact, as enumerated by CompilationCache::entries.
struct CacheEntryInfo {
  uint64_t Key = 0;     ///< Content key parsed from the filename.
  std::string Path;     ///< Absolute-or-relative artifact path.
  int64_t Bytes = 0;    ///< Artifact size on disk.
  int64_t MtimeSec = 0; ///< Last-use time (lookup hits refresh it).
};

/// Outcome of a full-directory verification sweep (verifyAll).
struct CacheVerifySweep {
  /// Entries that deserialized clean.
  int64_t Verified = 0;
  /// Entries enumerated but gone by the time they were verified — a
  /// concurrent eviction (the cache directory is shared mutable state
  /// across processes), not a health problem.
  int64_t SkippedEvicted = 0;
  /// Entries present but unusable (DataLoss etc.), with their statuses.
  std::vector<std::pair<uint64_t, Status>> Failures;
};

/// Handle on one cache directory. Stateless beyond the path; cheap to
/// construct per call.
class CompilationCache {
public:
  explicit CompilationCache(std::string Dir) : Dir(std::move(Dir)) {}

  /// Content key of one compilation: format version + serialized graph +
  /// every compile option that influences the artifact (CacheDir itself
  /// excluded). Collision-resistant only in the accidental sense (64-bit
  /// FNV), which matches the cache's trust model: artifacts are
  /// integrity-checked on load anyway.
  static uint64_t fingerprint(const Graph &G, const CompileOptions &Options);

  /// The artifact path for \p Key inside this cache directory.
  std::string pathForKey(uint64_t Key) const;

  /// Loads the artifact for \p Key. NotFound when absent, DataLoss when
  /// present but unusable — callers treat any error as a miss. A hit
  /// refreshes the artifact's modification time, so the eviction in
  /// store() is least-recently-used rather than first-in-first-out.
  Expected<CompiledModel> lookup(uint64_t Key) const;

  /// Persists \p M under \p Key, creating the directory on demand.
  /// Best-effort by contract: a failure leaves the cache cold, not the
  /// caller broken. When \p MaxBytes > 0, artifacts are then evicted
  /// least-recently-used-first until the directory's total artifact size
  /// fits the budget; the entry just stored is exempt, so one model
  /// larger than the whole budget still warm-starts its own next compile
  /// (the budget bounds steady state, it never rejects a store).
  Status store(uint64_t Key, const CompiledModel &M,
               int64_t MaxBytes = 0) const;

  /// Every artifact in the directory, least-recently-used first (the
  /// eviction order). Foreign files and mid-rename temporaries are ignored.
  std::vector<CacheEntryInfo> entries() const;

  /// Fully deserializes the artifact for \p Key — the same integrity
  /// checks a lookup hit runs — without refreshing its recency, so
  /// verification sweeps do not perturb least-recently-used eviction.
  /// NotFound when absent, DataLoss when present but unusable.
  Status verifyEntry(uint64_t Key) const;

  /// Verifies every entry currently in the directory, tolerating the
  /// races a shared cache directory allows: an entry evicted by another
  /// process between enumeration and verification is counted as
  /// SkippedEvicted, never mis-reported as corruption. Only entries that
  /// are present-but-unusable land in Failures.
  CacheVerifySweep verifyAll() const;

  /// Removes the artifact for \p Key. NotFound when absent.
  Status removeEntry(uint64_t Key) const;

  /// Removes least-recently-used artifacts (never \p Keep) until the
  /// directory's model-*.dnnf total is at most \p MaxBytes. Exposed for
  /// the dnnf-cache CLI; store() calls it after every budgeted write.
  void evictToBudget(int64_t MaxBytes, const std::string &Keep = "") const;

private:
  std::string Dir;
};

} // namespace dnnfusion

#endif // DNNFUSION_SERIALIZE_COMPILATIONCACHE_H
