//===- tests/test_serialize.cpp - Persistence subsystem tests --------------------===//
//
// Coverage for the serialization layer (src/serialize/): graph artifacts,
// compiled-model artifacts, the on-disk compilation cache, and the
// untrusted-input discipline — zoo-wide save -> load -> run bit-identity
// against the in-memory compile, plus truncation/bit-flip corruption
// sweeps where every sample must reject with a Status, never abort.
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "graph/GraphBuilder.h"
#include "models/ModelZoo.h"
#include "serialize/ByteStream.h"
#include "serialize/CompilationCache.h"
#include "serialize/GraphSerializer.h"
#include "serialize/ModelSerializer.h"
#include "serialize/PlanSerializer.h"
#include "support/FileIO.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

namespace {

using namespace dnnfusion;
using namespace dnnfusion::testutil;

/// Per-process temp path so parallel ctest shards never collide.
std::string tempPath(const char *Name) {
  return formatString("/tmp/dnnf_%d_%s", static_cast<int>(getpid()), Name);
}

/// Exact (bitwise) graph equality: structure, names, dead slots, weights.
void expectGraphsIdentical(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.toString(), B.toString());
  EXPECT_EQ(A.outputs(), B.outputs());
  for (NodeId Id = 0; Id < A.numNodes(); ++Id) {
    const Node &NA = A.node(Id);
    const Node &NB = B.node(Id);
    ASSERT_EQ(NA.Dead, NB.Dead) << "node " << Id;
    if (NA.Dead)
      continue;
    EXPECT_EQ(NA.Kind, NB.Kind) << "node " << Id;
    EXPECT_EQ(NA.Name, NB.Name) << "node " << Id;
    EXPECT_EQ(NA.Inputs, NB.Inputs) << "node " << Id;
    EXPECT_TRUE(NA.OutShape == NB.OutShape) << "node " << Id;
    EXPECT_TRUE(NA.Attrs == NB.Attrs) << "node " << Id;
    if (NA.Kind == OpKind::Constant) {
      ASSERT_EQ(NA.ConstValue.byteSize(), NB.ConstValue.byteSize());
      EXPECT_EQ(NA.ConstValue.dtype(), NB.ConstValue.dtype());
      EXPECT_EQ(std::memcmp(NA.ConstValue.data(), NB.ConstValue.data(),
                            NA.ConstValue.byteSize()),
                0)
          << "constant " << Id << " payload not bit-identical";
    }
  }
}

/// Bitwise output equality — serialization must not perturb a single ULP.
void expectBitIdentical(const std::vector<Tensor> &A,
                        const std::vector<Tensor> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_TRUE(A[I].shape() == B[I].shape()) << "output " << I;
    EXPECT_EQ(
        std::memcmp(A[I].data(), B[I].data(), A[I].byteSize()), 0)
        << "output " << I << " not bit-identical";
  }
}

//===----------------------------------------------------------------------===//
// ByteStream primitives
//===----------------------------------------------------------------------===//

TEST(ByteStream, PrimitivesRoundtripLittleEndian) {
  ByteWriter W;
  W.u8(0xab);
  W.u16(0x1234);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.i32(-7);
  W.i64(-1234567890123ll);
  W.f32(3.5f);
  W.f64(-0.0);
  W.str("hello\0world"); // Embedded NUL survives: length-prefixed.
  ByteReader R(W.buffer());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u16(), 0x1234);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.i32(), -7);
  EXPECT_EQ(R.i64(), -1234567890123ll);
  EXPECT_EQ(R.f32(), 3.5f);
  EXPECT_EQ(R.f64(), -0.0);
  EXPECT_EQ(R.str(), std::string("hello")); // "hello\0world" truncates at
                                            // the literal's first NUL —
                                            // what std::string(const char*)
                                            // produced on the write side.
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStream, WireEncodingIsLittleEndian) {
  ByteWriter W;
  W.u32(0x01020304);
  const std::string &B = W.buffer();
  ASSERT_EQ(B.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(B[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(B[3]), 0x01);
}

TEST(ByteStream, ReaderFailureIsStickyAndCarriesOffset) {
  ByteWriter W;
  W.u16(7);
  ByteReader R(W.buffer());
  EXPECT_EQ(R.u16(), 7);
  EXPECT_EQ(R.u32(), 0u); // Past the end: fails.
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::DataLoss);
  EXPECT_NE(R.status().message().find("byte 2"), std::string::npos);
  EXPECT_EQ(R.u8(), 0); // Still failed; still no abort.
  EXPECT_FALSE(R.ok());
}

TEST(ByteStream, HostileCountRejectsBeforeAllocating) {
  ByteWriter W;
  W.u32(0xffffffffu); // Claims 4 billion elements...
  W.u8(1);            // ...backed by one byte.
  ByteReader R(W.buffer());
  EXPECT_EQ(R.count(4), 0u);
  EXPECT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// Graph artifacts
//===----------------------------------------------------------------------===//

/// A small graph exercising every serializer feature: attrs of all four
/// types, explicit names needing escapes, a dead slot, multiple outputs.
Graph buildTrickyGraph() {
  GraphBuilder B(/*Seed=*/3);
  NodeId X = B.input(Shape({2, 3}), "in \"quoted\"\n");
  NodeId W = B.graph().addConstant(Tensor::full(Shape({3, 4}), -0.0f), "w");
  NodeId Mm = B.binary(OpKind::MatMul, X, W);
  NodeId Cast = B.graph().addOp(OpKind::Cast, {Mm},
                                AttrMap().set("to", "f32"), "cast\tname");
  NodeId Clip = B.graph().addOp(
      OpKind::Clip, {Cast},
      AttrMap().set("min", -1.5).set("max", 2.5).set("tag", "x"));
  NodeId Tr = B.graph().addOp(OpKind::Transpose, {Clip},
                              AttrMap().set("perm", std::vector<int64_t>{1, 0}));
  // A node that DCE will tombstone: feeds nothing.
  B.relu(Mm);
  B.markOutput(Clip);
  B.markOutput(Tr);
  Graph G = B.take();
  G.eraseDeadNodes();
  G.verify();
  return G;
}

TEST(GraphArtifact, BinaryRoundtripPreservesEverything) {
  Graph G = buildTrickyGraph();
  Expected<Graph> Restored =
      deserializeGraphArtifact(serializeGraphArtifact(G));
  ASSERT_TRUE(Restored.ok()) << Restored.status().toString();
  expectGraphsIdentical(G, *Restored);
}

TEST(GraphArtifact, FromPartsRejectsInconsistentConstants) {
  // The validate() gate behind every deserializer: a constant whose
  // payload disagrees with its declared shape must be rejected.
  std::vector<Node> Nodes(2);
  Nodes[0].Kind = OpKind::Constant;
  Nodes[0].OutShape = Shape({4});
  Nodes[0].ConstValue = Tensor::zeros(Shape({2})); // Wrong payload.
  Nodes[1].Kind = OpKind::Input;
  Nodes[1].OutShape = Shape({4});
  Nodes[1].Name = "x";
  Expected<Graph> G = Graph::fromParts(Nodes, {0});
  ASSERT_FALSE(G.ok());
  EXPECT_EQ(G.status().code(), ErrorCode::InvalidGraph);

  Nodes[0].ConstValue = Tensor(); // Missing payload.
  EXPECT_FALSE(Graph::fromParts(Nodes, {0}).ok());

  Nodes[0].ConstValue = Tensor::zeros(Shape({4})); // Fixed.
  EXPECT_TRUE(Graph::fromParts(Nodes, {0}).ok());
}

//===----------------------------------------------------------------------===//
// Zoo-wide compiled-model roundtrip (acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(ModelArtifact, ZooWideSaveLoadRunBitIdentity) {
  for (const ModelZooEntry &Entry : modelZoo()) {
    SCOPED_TRACE(Entry.Info.Name);
    Graph G = Entry.Build();
    std::vector<Tensor> Inputs = randomInputs(G, /*Seed=*/17);
    CompiledModel M = cantFail(compileModel(std::move(G)));

    Expected<CompiledModel> Loaded =
        deserializeCompiledModel(serializeCompiledModel(M));
    ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();

    // The restored model must be the same *program*: identical plan
    // shape, memory layout — and bit-identical outputs.
    EXPECT_EQ(Loaded->Plan.Blocks.size(), M.Plan.Blocks.size());
    EXPECT_EQ(Loaded->Memory.ArenaBytes, M.Memory.ArenaBytes);
    EXPECT_EQ(Loaded->Memory.ArenaOffsetOfNode, M.Memory.ArenaOffsetOfNode);
    EXPECT_EQ(Loaded->Signature.toString(), M.Signature.toString());

    ExecutionContext Original(M);
    ExecutionContext Restored(*Loaded);
    expectBitIdentical(Original.run(Inputs), Restored.run(Inputs));
  }
}

TEST(ModelArtifact, FileRoundtripThroughSaveAndLoad) {
  std::string Path = tempPath("artifact_roundtrip.dnnf");
  Graph G = buildModel("TinyBERT");
  std::vector<Tensor> Inputs = randomInputs(G, 23);
  CompiledModel M = cantFail(compileModel(std::move(G)));
  ASSERT_TRUE(saveModel(M, Path).ok());

  Expected<CompiledModel> Loaded = loadModel(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  ExecutionContext Original(M);
  ExecutionContext Restored(*Loaded);
  expectBitIdentical(Original.run(Inputs), Restored.run(Inputs));
  removeFileIfExists(Path);
}

TEST(ModelArtifact, GraphFileRoundtripCompilesEquivalently) {
  std::string Path = tempPath("graph_artifact.dnnf");
  Graph G = buildModel("EfficientNet-B0");
  ASSERT_TRUE(saveGraph(G, Path).ok());
  Expected<Graph> Loaded = loadGraph(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  expectGraphsIdentical(G, *Loaded);

  std::vector<Tensor> Inputs = randomInputs(G, 31);
  CompiledModel M1 = cantFail(compileModel(std::move(G)));
  CompiledModel M2 = cantFail(compileModel(Loaded.takeValue()));
  ExecutionContext E1(M1), E2(M2);
  expectBitIdentical(E1.run(Inputs), E2.run(Inputs));
  removeFileIfExists(Path);
}

/// \p G's binary encoding, written by itself.
std::string graphBytes(const Graph &G) {
  ByteWriter W;
  serializeGraph(G, W);
  return W.take();
}

/// Checks \p Blob's header (version, \p Kind, and a checksum over byte 20
/// to EOF) and that its sections hold exactly the payloads \p Want maps
/// their tags to.
void expectContainer(const std::string &Blob, ArtifactKind Kind,
                     const std::map<std::string, std::string> &Want) {
  ASSERT_GE(Blob.size(), 24u);
  EXPECT_EQ(Blob.compare(0, 4, "DNNF"), 0);
  ByteReader Header(Blob.data() + 4, 16);
  EXPECT_EQ(Header.u32(), SerializedFormatVersion);
  EXPECT_EQ(Header.u32(), static_cast<uint32_t>(Kind));
  EXPECT_EQ(Header.u64(), hash64(Blob.data() + 20, Blob.size() - 20));

  ByteReader R(Blob.data() + 20, Blob.size() - 20);
  ASSERT_EQ(R.u32(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    std::string Tag(4, '\0');
    R.raw(&Tag[0], 4);
    uint64_t Size = R.u64();
    ASSERT_TRUE(R.ok());
    ASSERT_LE(Size, R.remaining()) << Tag;
    auto It = Want.find(Tag);
    ASSERT_NE(It, Want.end()) << "unexpected section " << Tag;
    // Compared as a bool: a failure must not print megabytes.
    EXPECT_TRUE(Blob.compare(20 + R.position(), Size, It->second) == 0)
        << "section " << Tag << " differs from its serializer's bytes";
    R.skip(static_cast<size_t>(Size));
  }
  EXPECT_TRUE(R.atEnd());
}

TEST(ModelArtifact, SectionsHoldTheirSerializersBytesUnderOneChecksum) {
  CompiledModel M =
      cantFail(compileModel(buildModel("TinyBERT"), CompileOptions()));
  ByteWriter Options, Plan, Memory;
  // OPTS as docs/FORMAT.md lays it out.
  Options.u8(M.Codegen.FoldDataMovement ? 1 : 0);
  Options.u8(M.Codegen.MaterializeShared ? 1 : 0);
  Options.u32(static_cast<uint32_t>(M.Codegen.ChunkSize));
  Options.u8(M.Codegen.FuseAttention ? 1 : 0);
  Options.u8(M.Codegen.FuseNorm ? 1 : 0);
  serializeFusionPlan(M.Plan, Plan);
  serializeMemoryPlan(M.Memory, Memory);
  expectContainer(serializeCompiledModel(M), ArtifactKind::CompiledModel,
                  {{"GRPH", graphBytes(M.G)},
                   {"OPTS", Options.take()},
                   {"PLAN", Plan.take()},
                   {"MEMP", Memory.take()}});

  Graph G = buildModel("EfficientNet-B0");
  expectContainer(serializeGraphArtifact(G), ArtifactKind::Graph,
                  {{"GRPH", graphBytes(G)}});
}

TEST(ModelArtifact, MissingFileIsNotFound) {
  Expected<CompiledModel> M = loadModel(tempPath("no_such_artifact.dnnf"));
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::NotFound);
}

//===----------------------------------------------------------------------===//
// Corruption discipline: no byte stream may abort
//===----------------------------------------------------------------------===//

class ArtifactCorruption : public ::testing::Test {
protected:
  void SetUp() override {
    CompiledModel M =
        cantFail(compileModel(buildModel("TinyBERT"), CompileOptions()));
    Blob = serializeCompiledModel(M);
  }
  std::string Blob;
};

TEST_F(ArtifactCorruption, EveryTruncationRejects) {
  // Dense sweep over the header/section-table region, strided over the
  // bulk. Every prefix must reject with a Status (DataLoss), never abort.
  for (size_t Len = 0; Len < Blob.size();
       Len += (Len < 256 ? 1 : Blob.size() / 199 + 1)) {
    Expected<CompiledModel> M =
        deserializeCompiledModel(Blob.substr(0, Len));
    ASSERT_FALSE(M.ok()) << "prefix of " << Len << " bytes accepted";
    EXPECT_EQ(M.status().code(), ErrorCode::DataLoss);
  }
}

TEST_F(ArtifactCorruption, EveryBitFlipRejects) {
  // The checksum covers every payload byte and the header fields are each
  // individually checked, so any single-bit flip must be detected.
  for (size_t Offset = 0; Offset < Blob.size();
       Offset += (Offset < 64 ? 1 : Blob.size() / 331 + 1)) {
    std::string Corrupt = Blob;
    Corrupt[Offset] =
        static_cast<char>(Corrupt[Offset] ^ (1 << (Offset % 8)));
    Expected<CompiledModel> M = deserializeCompiledModel(Corrupt);
    ASSERT_FALSE(M.ok()) << "bit flip at byte " << Offset << " accepted";
  }
}

TEST_F(ArtifactCorruption, VersionDriftRejectsWithClearDiagnostic) {
  std::string Future = Blob;
  Future[4] = 99; // Format version lives at bytes 4..7 (see FORMAT.md).
  Expected<CompiledModel> M = deserializeCompiledModel(Future);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::DataLoss);
  EXPECT_NE(M.status().message().find("version"), std::string::npos);
}

TEST_F(ArtifactCorruption, MemoryPlanDriftRejects) {
  // A well-formed artifact (valid checksum) whose MEMP section disagrees
  // with the plan the loader recomputes: the recompute-and-compare check
  // must reject it rather than run blocks over a foreign arena layout.
  CompiledModel M =
      cantFail(compileModel(buildModel("TinyBERT"), CompileOptions()));
  M.Memory.ArenaBytes += 64;
  Expected<CompiledModel> Loaded =
      deserializeCompiledModel(serializeCompiledModel(M));
  ASSERT_FALSE(Loaded.ok());
  EXPECT_EQ(Loaded.status().code(), ErrorCode::DataLoss);
  EXPECT_NE(Loaded.status().message().find("memory plan"), std::string::npos);
}

TEST_F(ArtifactCorruption, WrongKindRejects) {
  Graph G = buildModel("TinyBERT");
  // A graph artifact is not a model artifact, and vice versa.
  EXPECT_FALSE(deserializeCompiledModel(serializeGraphArtifact(G)).ok());
  EXPECT_FALSE(deserializeGraphArtifact(Blob).ok());
}

//===----------------------------------------------------------------------===//
// Compilation cache
//===----------------------------------------------------------------------===//

class CompilationCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = tempPath("compile_cache");
    Clean();
  }
  void TearDown() override { Clean(); }
  void Clean() {
    // The cache names every artifact model-<key>.dnnf; remove what a test
    // may have left behind, then the directory.
    CompileOptions Opt;
    Opt.CacheDir = Dir;
    for (const ModelZooEntry &Entry : modelZoo())
      removeFileIfExists(
          CompilationCache(Dir).pathForKey(CompilationCache::fingerprint(
              Entry.Build(), Opt)));
    rmdir(Dir.c_str());
  }
  std::string Dir;
};

TEST_F(CompilationCacheTest, MissThenHitWithBitIdenticalExecution) {
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  Graph G = buildModel("EfficientNet-B0");
  std::vector<Tensor> Inputs = randomInputs(G, 41);

  CompiledModel Plain = cantFail(compileModel(G, CompileOptions()));
  CompiledModel Cold = cantFail(compileModel(G, Opt));
  EXPECT_FALSE(Cold.CacheHit);
  CompiledModel Warm = cantFail(compileModel(G, Opt));
  EXPECT_TRUE(Warm.CacheHit);

  ExecutionContext EPlain(Plain), ECold(Cold), EWarm(Warm);
  std::vector<Tensor> Want = EPlain.run(Inputs);
  expectBitIdentical(Want, ECold.run(Inputs));
  expectBitIdentical(Want, EWarm.run(Inputs));
}

TEST_F(CompilationCacheTest, KeyCoversOptionsAndGraphContent) {
  Graph G = buildModel("TinyBERT");
  CompileOptions A;
  A.CacheDir = Dir;
  CompileOptions B = A;
  B.EnableFusion = false;
  EXPECT_NE(CompilationCache::fingerprint(G, A),
            CompilationCache::fingerprint(G, B));
  // CacheDir itself must not perturb the key (same content, moved dir).
  CompileOptions C = A;
  C.CacheDir = Dir + "_elsewhere";
  EXPECT_EQ(CompilationCache::fingerprint(G, A),
            CompilationCache::fingerprint(G, C));
  EXPECT_NE(CompilationCache::fingerprint(G, A),
            CompilationCache::fingerprint(buildModel("DistilBERT"), A));
}

TEST_F(CompilationCacheTest, CorruptEntryFallsBackToCleanRecompile) {
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  Graph G = buildModel("TinyBERT");
  cantFail(compileModel(G, Opt)); // Populate.

  std::string Path =
      CompilationCache(Dir).pathForKey(CompilationCache::fingerprint(G, Opt));
  Expected<std::string> Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.ok());
  std::string Corrupt = *Bytes;
  Corrupt[Corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(Path, Corrupt).ok());

  // Corruption is a miss, not an error; the recompile repairs the entry.
  CompiledModel M = cantFail(compileModel(G, Opt));
  EXPECT_FALSE(M.CacheHit);
  CompiledModel Again = cantFail(compileModel(G, Opt));
  EXPECT_TRUE(Again.CacheHit);
}

TEST_F(CompilationCacheTest, LruEvictionHonorsBudgetAndRecency) {
  // Three same-shaped graphs with different weights: equal artifact sizes,
  // distinct content keys.
  auto Build = [](uint64_t Seed) {
    GraphBuilder B(Seed);
    NodeId X = B.input(Shape({8, 16}));
    NodeId W = B.weight(Shape({16, 16}));
    B.markOutput(B.relu(B.binary(OpKind::MatMul, X, W)));
    return B.take();
  };
  Graph GA = Build(1), GB = Build(2), GC = Build(3);
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  CompilationCache Cache(Dir);
  std::string PathA = Cache.pathForKey(CompilationCache::fingerprint(GA, Opt));
  std::string PathB = Cache.pathForKey(CompilationCache::fingerprint(GB, Opt));
  std::string PathC = Cache.pathForKey(CompilationCache::fingerprint(GC, Opt));
  ASSERT_NE(PathA, PathB);

  cantFail(compileModel(GA, Opt)); // Unbudgeted store to size one artifact.
  struct stat St;
  ASSERT_EQ(stat(PathA.c_str(), &St), 0);
  const int64_t One = static_cast<int64_t>(St.st_size);
  Opt.CacheMaxBytes = 2 * One + One / 2; // Two artifacts fit, three don't.

  cantFail(compileModel(GB, Opt));
  // Age both entries, A older than B; a warm hit on A must refresh its
  // recency so B becomes the least-recently-used entry.
  time_t Now = time(nullptr);
  struct utimbuf OldA = {Now - 100, Now - 100};
  struct utimbuf OldB = {Now - 50, Now - 50};
  ASSERT_EQ(utime(PathA.c_str(), &OldA), 0);
  ASSERT_EQ(utime(PathB.c_str(), &OldB), 0);
  CompiledModel Warm = cantFail(compileModel(GA, Opt));
  EXPECT_TRUE(Warm.CacheHit);

  // Storing C overflows the budget: B (LRU) is evicted, not A (touched).
  cantFail(compileModel(GC, Opt));
  EXPECT_TRUE(fileExists(PathA));
  EXPECT_TRUE(fileExists(PathC));
  EXPECT_FALSE(fileExists(PathB));

  // An evicted entry is a plain miss: clean recompile, re-stored, and the
  // now-oldest artifact (A, whose touch predates C's store) goes instead.
  CompiledModel Again = cantFail(compileModel(GB, Opt));
  EXPECT_FALSE(Again.CacheHit);
  EXPECT_TRUE(fileExists(PathB));
  EXPECT_TRUE(fileExists(PathC));
  EXPECT_FALSE(fileExists(PathA));

  // A budget smaller than one artifact never rejects the store: the entry
  // just written is exempt, everything else is evicted.
  Opt.CacheMaxBytes = One / 2;
  cantFail(compileModel(GA, Opt));
  EXPECT_TRUE(fileExists(PathA));
  EXPECT_FALSE(fileExists(PathB));
  EXPECT_FALSE(fileExists(PathC));
  CompiledModel Oversized = cantFail(compileModel(GA, Opt));
  EXPECT_TRUE(Oversized.CacheHit);

  removeFileIfExists(PathA);
  removeFileIfExists(PathB);
  removeFileIfExists(PathC);
}

TEST_F(CompilationCacheTest, InspectionApiListsVerifiesRemovesAndEvicts) {
  // The surface behind the dnnf-cache CLI: entries / verifyEntry /
  // removeEntry / public evictToBudget.
  auto Build = [](uint64_t Seed) {
    GraphBuilder B(Seed);
    NodeId X = B.input(Shape({4, 8}));
    NodeId W = B.weight(Shape({8, 8}));
    B.markOutput(B.relu(B.binary(OpKind::MatMul, X, W)));
    return B.take();
  };
  Graph GA = Build(10), GB = Build(11);
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  CompilationCache Cache(Dir);
  const uint64_t KeyA = CompilationCache::fingerprint(GA, Opt);
  const uint64_t KeyB = CompilationCache::fingerprint(GB, Opt);
  cantFail(compileModel(GA, Opt));
  cantFail(compileModel(GB, Opt));

  // entries() sees both, with keys parsed back from the filenames and the
  // path/size agreeing with the filesystem.
  std::vector<CacheEntryInfo> Entries = Cache.entries();
  ASSERT_EQ(Entries.size(), 2u);
  for (const CacheEntryInfo &E : Entries) {
    EXPECT_TRUE(E.Key == KeyA || E.Key == KeyB);
    EXPECT_EQ(E.Path, Cache.pathForKey(E.Key));
    EXPECT_GT(E.Bytes, 0);
  }

  // Verification: clean entries pass, a bit-flipped one reports an error
  // (and never aborts), a missing key is NotFound.
  EXPECT_TRUE(Cache.verifyEntry(KeyA).ok());
  EXPECT_TRUE(Cache.verifyEntry(KeyB).ok());
  std::string PathB = Cache.pathForKey(KeyB);
  Expected<std::string> Bytes = readFileBytes(PathB);
  ASSERT_TRUE(Bytes.ok());
  std::string Corrupt = *Bytes;
  Corrupt[Corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(PathB, Corrupt).ok());
  EXPECT_FALSE(Cache.verifyEntry(KeyB).ok());
  EXPECT_EQ(Cache.verifyEntry(~KeyA).code(), ErrorCode::NotFound);

  // removeEntry: present -> gone; absent -> typed NotFound.
  EXPECT_TRUE(Cache.removeEntry(KeyB).ok());
  EXPECT_FALSE(fileExists(PathB));
  EXPECT_EQ(Cache.removeEntry(KeyB).code(), ErrorCode::NotFound);

  // Public evictToBudget: a zero budget clears every remaining artifact.
  Cache.evictToBudget(0);
  EXPECT_TRUE(Cache.entries().empty());
}

TEST_F(CompilationCacheTest, VersionDriftColdStartsInsteadOfFailing) {
  CompileOptions Opt;
  Opt.CacheDir = Dir;
  Graph G = buildModel("TinyBERT");
  cantFail(compileModel(G, Opt));
  std::string Path =
      CompilationCache(Dir).pathForKey(CompilationCache::fingerprint(G, Opt));
  Expected<std::string> Bytes = readFileBytes(Path);
  ASSERT_TRUE(Bytes.ok());
  std::string Drifted = *Bytes;
  Drifted[4] = 77; // Pretend a future format version wrote this entry.
  ASSERT_TRUE(writeFileAtomic(Path, Drifted).ok());
  CompiledModel M = cantFail(compileModel(G, Opt));
  EXPECT_FALSE(M.CacheHit); // Clean recompile, no error escaped.
}

} // namespace
