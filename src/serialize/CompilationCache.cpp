//===- serialize/CompilationCache.cpp - On-disk compile cache -------------------===//

#include "serialize/CompilationCache.h"

#include "serialize/ByteStream.h"
#include "serialize/GraphSerializer.h"
#include "serialize/ModelSerializer.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <tuple>
#include <vector>

using namespace dnnfusion;

namespace {

/// One cache artifact on disk, with the metadata eviction orders by.
struct ArtifactInfo {
  std::string Path;
  int64_t Bytes = 0;
  int64_t MtimeSec = 0;
  int64_t MtimeNsec = 0;
};

/// Every model-*.dnnf regular file in \p Dir. Anything else in the
/// directory (temp files mid-rename, foreign files) is left alone.
std::vector<ArtifactInfo> listArtifacts(const std::string &Dir) {
  std::vector<ArtifactInfo> Out;
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Out;
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.rfind("model-", 0) != 0 || Name.size() < 11 ||
        Name.compare(Name.size() - 5, 5, ".dnnf") != 0)
      continue;
    ArtifactInfo A;
    A.Path = Dir + "/" + Name;
    struct stat St;
    if (stat(A.Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    A.Bytes = static_cast<int64_t>(St.st_size);
    A.MtimeSec = static_cast<int64_t>(St.st_mtim.tv_sec);
    A.MtimeNsec = static_cast<int64_t>(St.st_mtim.tv_nsec);
    Out.push_back(std::move(A));
  }
  closedir(D);
  return Out;
}

/// Every option that changes the compiled artifact, in one stable
/// encoding. New fields append here (and implicitly cold-start caches,
/// which is the safe direction).
std::string serializeOptionsForKey(const CompileOptions &O) {
  ByteWriter W;
  W.u8(O.EnableGraphRewriting ? 1 : 0);
  W.u8(O.EnableFusion ? 1 : 0);
  W.u8(O.EnableOtherOpts ? 1 : 0);
  W.u8(O.Rewrite.EnableAssociative ? 1 : 0);
  W.u8(O.Rewrite.EnableDistributive ? 1 : 0);
  W.u8(O.Rewrite.EnableCommutative ? 1 : 0);
  W.u8(O.Rewrite.EnableCanonicalization ? 1 : 0);
  W.u8(O.Rewrite.EnableFolding ? 1 : 0);
  W.i32(O.Rewrite.MaxApplications);
  W.u8(static_cast<uint8_t>(O.Planner.Seeds));
  W.i32(O.Planner.MaxOpsPerBlock);
  W.i32(O.Planner.MaxBlockInputs);
  W.u8(O.Planner.EnableYellowFusion ? 1 : 0);
  W.u8(O.Codegen.FoldDataMovement ? 1 : 0);
  W.u8(O.Codegen.MaterializeShared ? 1 : 0);
  W.i32(O.Codegen.ChunkSize);
  // FuseAttention/FuseNorm change the fusion plan (and thus the persisted
  // artifact).
  W.u8(O.Codegen.FuseAttention ? 1 : 0);
  W.u8(O.Codegen.FuseNorm ? 1 : 0);
  // The whole KernelConfig (packing and ForceKernelLevel) is
  // excluded, and adopted from the caller on a hit: kernel dispatch is a
  // per-execution property of the *loading* host — an artifact compiled
  // under forced-scalar must hit the same cache entry and re-resolve to
  // the loader's best tier (blocks are never serialized; compileBlock on
  // load re-stamps them). Keying on it would both fragment the cache and
  // freeze a host's feature set into a portable artifact.
  return W.take();
}

} // namespace

uint64_t CompilationCache::fingerprint(const Graph &G,
                                       const CompileOptions &Options) {
  uint32_t Version = SerializedFormatVersion;
  uint64_t H = fnv1a64(&Version, sizeof(Version));
  H = fnv1a64(serializeGraph(G), H);
  H = fnv1a64(serializeOptionsForKey(Options), H);
  return H;
}

std::string CompilationCache::pathForKey(uint64_t Key) const {
  return formatString("%s/model-%016llx.dnnf", Dir.c_str(),
                      static_cast<unsigned long long>(Key));
}

Expected<CompiledModel> CompilationCache::lookup(uint64_t Key) const {
  std::string Path = pathForKey(Key);
  Expected<CompiledModel> M = loadModel(Path);
  if (M.ok()) {
    // Refresh recency (nanosecond "now") so budgeted eviction is LRU.
    // Best-effort: a read-only cache directory still serves hits.
    utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
  }
  return M;
}

Status CompilationCache::store(uint64_t Key, const CompiledModel &M,
                               int64_t MaxBytes) const {
  if (Status S = ensureDirectory(Dir); !S.ok())
    return S;
  std::string Path = pathForKey(Key);
  if (Status S = saveModel(M, Path); !S.ok())
    return S;
  if (MaxBytes > 0)
    evictToBudget(MaxBytes, Path);
  return Status();
}

std::vector<CacheEntryInfo> CompilationCache::entries() const {
  std::vector<ArtifactInfo> Artifacts = listArtifacts(Dir);
  std::sort(Artifacts.begin(), Artifacts.end(),
            [](const ArtifactInfo &A, const ArtifactInfo &B) {
              return std::tie(A.MtimeSec, A.MtimeNsec, A.Path) <
                     std::tie(B.MtimeSec, B.MtimeNsec, B.Path);
            });
  std::vector<CacheEntryInfo> Out;
  Out.reserve(Artifacts.size());
  for (const ArtifactInfo &A : Artifacts) {
    CacheEntryInfo E;
    E.Path = A.Path;
    E.Bytes = A.Bytes;
    E.MtimeSec = A.MtimeSec;
    // model-<16 hex digits>.dnnf — listArtifacts already filtered the
    // prefix/suffix, so the middle is the key.
    size_t Slash = A.Path.find_last_of('/');
    std::string Name =
        Slash == std::string::npos ? A.Path : A.Path.substr(Slash + 1);
    E.Key = strtoull(Name.substr(6, Name.size() - 11).c_str(), nullptr, 16);
    Out.push_back(std::move(E));
  }
  return Out;
}

Status CompilationCache::verifyEntry(uint64_t Key) const {
  // loadModel runs the full integrity pipeline (format version, section
  // checksums, memory-plan cross-check); unlike lookup() it is not
  // followed by an mtime refresh here.
  Expected<CompiledModel> M = loadModel(pathForKey(Key));
  return M.ok() ? Status() : M.status();
}

CacheVerifySweep CompilationCache::verifyAll() const {
  CacheVerifySweep Sweep;
  for (const CacheEntryInfo &E : entries()) {
    Status S = verifyEntry(E.Key);
    if (S.ok()) {
      ++Sweep.Verified;
      continue;
    }
    if (S.code() == ErrorCode::NotFound) {
      // Enumerated, then gone: another process evicted it between our
      // readdir and our open. That is the directory working as designed,
      // not an integrity failure.
      ++Sweep.SkippedEvicted;
      continue;
    }
    Sweep.Failures.emplace_back(E.Key, std::move(S));
  }
  return Sweep;
}

Status CompilationCache::removeEntry(uint64_t Key) const {
  std::string Path = pathForKey(Key);
  struct stat St;
  if (stat(Path.c_str(), &St) != 0)
    return Status::errorf(ErrorCode::NotFound, "no cache entry %016llx",
                          static_cast<unsigned long long>(Key));
  removeFileIfExists(Path);
  return Status();
}

void CompilationCache::evictToBudget(int64_t MaxBytes,
                                     const std::string &Keep) const {
  std::vector<ArtifactInfo> Artifacts = listArtifacts(Dir);
  int64_t Total = 0;
  for (const ArtifactInfo &A : Artifacts)
    Total += A.Bytes;
  if (Total <= MaxBytes)
    return;
  // Oldest access first; the path breaks mtime ties deterministically.
  std::sort(Artifacts.begin(), Artifacts.end(),
            [](const ArtifactInfo &A, const ArtifactInfo &B) {
              return std::tie(A.MtimeSec, A.MtimeNsec, A.Path) <
                     std::tie(B.MtimeSec, B.MtimeNsec, B.Path);
            });
  for (const ArtifactInfo &A : Artifacts) {
    if (Total <= MaxBytes)
      break;
    if (A.Path == Keep)
      continue;
    removeFileIfExists(A.Path);
    Total -= A.Bytes;
  }
}
