//===- examples/save_load_roundtrip.cpp - persistence walk-through ------------------===//
//
// Model & plan persistence through the public facade: compile a zoo-scale
// model with the on-disk compilation cache enabled, save the compiled
// artifact, load it back, and verify the loaded model serves bit-identical
// results — then corrupt a copy of the artifact and watch the loader
// reject it with a clean Status (the untrusted-input discipline).
//
//   $ ./save_load_roundtrip                          # self-contained
//   $ ./save_load_roundtrip --cache-dir DIR          # share a cache dir
//   $ ./save_load_roundtrip --cache-dir DIR --expect-cache-hit
//
// The last form is what CI's cache-hit smoke job runs as its second
// invocation: the first process populated DIR, so this process's very
// first compile must come from the cache.
//
// Exit code is the assertion: non-zero on any violated expectation.
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include "models/ModelZoo.h"
#include "tensor/TensorUtils.h"

#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <string>
#include <unistd.h>

using namespace dnnfusion;

namespace {

/// Best-effort recursive-less cleanup of the example's scratch directory.
void removeDirectoryFiles(const std::string &Dir) {
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        std::remove((Dir + "/" + E->d_name).c_str());
    closedir(D);
  }
  rmdir(Dir.c_str());
}

bool bitIdentical(const std::vector<Tensor> &A, const std::vector<Tensor> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(A[I].shape() == B[I].shape()) ||
        std::memcmp(A[I].data(), B[I].data(), A[I].byteSize()) != 0)
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string CacheDir;
  bool ExpectCacheHit = false;
  bool OwnScratchDir = true;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--cache-dir") == 0 && I + 1 < argc) {
      CacheDir = argv[++I];
      OwnScratchDir = false;
    } else if (std::strcmp(argv[I], "--expect-cache-hit") == 0) {
      ExpectCacheHit = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cache-dir DIR] [--expect-cache-hit]\n",
                   argv[0]);
      return 2;
    }
  }
  if (CacheDir.empty())
    CacheDir = "/tmp/dnnf_roundtrip_" + std::to_string(getpid());

  // 1. Compile with the on-disk compilation cache enabled: the planning
  //    cost (rewrite search, fusion exploration) is paid once per
  //    (graph, options) content, across process restarts.
  CompileOptions Opt;
  Opt.CacheDir = CacheDir;
  Expected<CompiledModel> First = compileModel(buildModel("EfficientNet-B0"), Opt);
  if (!First.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n",
                 First.status().toString().c_str());
    return 1;
  }
  std::printf("first compile: cache %s (dir %s)\n",
              First->CacheHit ? "HIT" : "miss", CacheDir.c_str());
  if (ExpectCacheHit && !First->CacheHit) {
    std::fprintf(stderr, "expected a cache hit and saw a miss\n");
    return 1;
  }

  // 2. The same compile again, same process: must be a hit now.
  Expected<CompiledModel> Second = compileModel(buildModel("EfficientNet-B0"), Opt);
  if (!Second.ok() || !Second->CacheHit) {
    std::fprintf(stderr, "second compile did not hit the cache (%s)\n",
                 Second.ok() ? "miss" : Second.status().toString().c_str());
    return 1;
  }
  std::printf("second compile: cache HIT\n");

  // 3. Explicit save -> load round trip of the compiled artifact.
  std::string ArtifactPath = CacheDir + "/roundtrip-model.dnnf";
  if (Status S = saveModel(*First, ArtifactPath); !S.ok()) {
    std::fprintf(stderr, "saveModel failed: %s\n", S.toString().c_str());
    return 1;
  }
  Expected<CompiledModel> Loaded = loadModel(ArtifactPath);
  if (!Loaded.ok()) {
    std::fprintf(stderr, "loadModel failed: %s\n",
                 Loaded.status().toString().c_str());
    return 1;
  }
  std::printf("saved and reloaded: %lld fused kernels, %.1f KB arena\n",
              static_cast<long long>(Loaded->kernelLaunches()),
              static_cast<double>(Loaded->Memory.ArenaBytes) / 1024.0);

  // 4. The loaded model must serve bit-identical results.
  Rng R(7);
  Tensor Image(Loaded->Signature.Inputs[0].Sh);
  fillRandom(Image, R);
  InferenceSession Original(First.takeValue());
  InferenceSession Restored(Loaded.takeValue());
  Expected<std::vector<Tensor>> A = Original.run({Image});
  Expected<std::vector<Tensor>> B = Restored.run({Image});
  if (!A.ok() || !B.ok()) {
    std::fprintf(stderr, "inference failed after reload\n");
    return 1;
  }
  if (!bitIdentical(*A, *B)) {
    std::fprintf(stderr, "loaded model outputs are NOT bit-identical\n");
    return 1;
  }
  std::printf("outputs bit-identical across the save/load boundary\n");

  // 5. Artifacts are untrusted input: a corrupted file must reject with a
  //    Status — the process (your server) survives.
  std::string CorruptPath = CacheDir + "/roundtrip-corrupt.dnnf";
  {
    FILE *In = std::fopen(ArtifactPath.c_str(), "rb");
    FILE *Out = std::fopen(CorruptPath.c_str(), "wb");
    if (!In || !Out)
      return 1;
    std::string Bytes;
    char Chunk[4096];
    size_t N;
    while ((N = std::fread(Chunk, 1, sizeof(Chunk), In)) > 0)
      Bytes.append(Chunk, N);
    Bytes[Bytes.size() / 2] ^= 0x20; // One flipped bit.
    std::fwrite(Bytes.data(), 1, Bytes.size(), Out);
    std::fclose(In);
    std::fclose(Out);
  }
  Expected<CompiledModel> Corrupt = loadModel(CorruptPath);
  std::printf("corrupted artifact: %s\n",
              Corrupt.ok() ? "UNEXPECTEDLY ACCEPTED"
                           : Corrupt.status().toString().c_str());
  std::remove(CorruptPath.c_str());
  std::remove(ArtifactPath.c_str());
  if (Corrupt.ok())
    return 1;

  if (OwnScratchDir)
    removeDirectoryFiles(CacheDir);
  std::printf("roundtrip example passed\n");
  return 0;
}
