//===- serialize/ModelSerializer.cpp - Artifact container -----------------------===//

#include "serialize/ModelSerializer.h"

#include "core/Dft.h"
#include "core/FusionPlanner.h"
#include "serialize/ByteStream.h"
#include "serialize/GraphSerializer.h"
#include "serialize/PlanSerializer.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <functional>
#include <initializer_list>
#include <map>

using namespace dnnfusion;

namespace {

constexpr size_t HeaderBytes = 20; // magic + version + kind + checksum.
constexpr size_t ChecksumOffset = 12;

constexpr uint32_t fourcc(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<unsigned char>(A)) |
         static_cast<uint32_t>(static_cast<unsigned char>(B)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(C)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(D)) << 24;
}

constexpr uint32_t TagGraph = fourcc('G', 'R', 'P', 'H');
constexpr uint32_t TagOptions = fourcc('O', 'P', 'T', 'S');
constexpr uint32_t TagPlan = fourcc('P', 'L', 'A', 'N');
constexpr uint32_t TagMemory = fourcc('M', 'E', 'M', 'P');

std::string tagName(uint32_t Tag) {
  char Name[5] = {static_cast<char>(Tag & 0xff),
                  static_cast<char>((Tag >> 8) & 0xff),
                  static_cast<char>((Tag >> 16) & 0xff),
                  static_cast<char>((Tag >> 24) & 0xff), 0};
  return Name;
}

/// One section of a container being built: its tag and the serializer
/// that appends its payload.
struct SectionWriter {
  uint32_t Tag;
  std::function<void(ByteWriter &)> Write;
};

/// Writes a whole container into one buffer, reserved up front for
/// \p PayloadBytes of section payload: the header with a zero checksum,
/// then each section's tag, a placeholder length and its payload. Each
/// length, and last the checksum, is backfilled in place.
std::string buildContainer(ArtifactKind Kind, size_t PayloadBytes,
                           std::initializer_list<SectionWriter> Sections) {
  ByteWriter W;
  W.reserve(HeaderBytes + 4 + 12 * Sections.size() + PayloadBytes);
  W.raw("DNNF", 4);
  W.u32(SerializedFormatVersion);
  W.u32(static_cast<uint32_t>(Kind));
  W.u64(0); // Checksum.
  W.u32(static_cast<uint32_t>(Sections.size()));
  for (const SectionWriter &S : Sections) {
    W.u32(S.Tag);
    size_t LengthAt = W.size();
    W.u64(0); // Payload length.
    S.Write(W);
    W.patchU64(LengthAt, W.size() - LengthAt - 8);
  }
  W.patchU64(ChecksumOffset, hash64(W.buffer().data() + HeaderBytes,
                                    W.size() - HeaderBytes));
  return W.take();
}

struct SectionSpan {
  size_t Offset = 0;
  size_t Size = 0;
};

/// Parses and integrity-checks the container; returns the section map.
Expected<std::map<uint32_t, SectionSpan>>
parseContainer(const std::string &Bytes, ArtifactKind ExpectedKind) {
  if (Bytes.size() < HeaderBytes ||
      Bytes.compare(0, 4, "DNNF", 4) != 0)
    return Status::error(ErrorCode::DataLoss,
                         "not a DNNFusion artifact (bad magic)");
  ByteReader Header(Bytes.data() + 4, HeaderBytes - 4);
  uint32_t Version = Header.u32();
  uint32_t Kind = Header.u32();
  uint64_t Checksum = Header.u64();
  if (Version != SerializedFormatVersion)
    return Status::errorf(ErrorCode::DataLoss,
                          "artifact format version %u is not the supported "
                          "version %u",
                          Version, SerializedFormatVersion);
  if (Kind != static_cast<uint32_t>(ExpectedKind))
    return Status::errorf(ErrorCode::DataLoss,
                          "artifact kind %u, expected %u (%s)", Kind,
                          static_cast<uint32_t>(ExpectedKind),
                          ExpectedKind == ArtifactKind::Graph
                              ? "a graph"
                              : "a compiled model");
  uint64_t Actual =
      hash64(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes);
  if (Actual != Checksum)
    return Status::error(ErrorCode::DataLoss,
                         "artifact checksum mismatch (corrupted or "
                         "truncated file)");

  ByteReader R(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes);
  uint32_t NumSections = R.count(/*MinBytesPerElement=*/12);
  std::map<uint32_t, SectionSpan> Sections;
  for (uint32_t I = 0; I < NumSections && R.ok(); ++I) {
    uint32_t Tag = R.u32();
    uint64_t Size = R.u64();
    if (R.ok() && Size > R.remaining()) {
      R.fail(formatString("section '%s' claims %llu bytes, %zu remain",
                          tagName(Tag).c_str(),
                          static_cast<unsigned long long>(Size),
                          R.remaining()));
      break;
    }
    if (R.ok() && Sections.count(Tag)) {
      R.fail(formatString("duplicate section '%s'", tagName(Tag).c_str()));
      break;
    }
    if (R.ok()) {
      Sections[Tag] = {HeaderBytes + R.position(),
                       static_cast<size_t>(Size)};
      R.skip(static_cast<size_t>(Size));
    }
  }
  if (R.ok() && !R.atEnd())
    R.fail(formatString("%zu stray bytes after the last section",
                        R.remaining()));
  if (!R.ok())
    return R.status();
  return Sections;
}

/// A bounds-checked reader over one section's span.
ByteReader sectionReader(const std::string &Bytes, const SectionSpan &Span) {
  return ByteReader(Bytes.data() + Span.Offset, Span.Size);
}

Status missingSection(uint32_t Tag) {
  return Status::errorf(ErrorCode::DataLoss, "artifact lacks the '%s' section",
                        tagName(Tag).c_str());
}

Status trailingBytes(uint32_t Tag, size_t N) {
  return Status::errorf(ErrorCode::DataLoss,
                        "%zu trailing bytes in the '%s' section", N,
                        tagName(Tag).c_str());
}

/// Appends the OPTS payload: the codegen configuration the blocks must be
/// rebuilt with.
void writeOptions(const CodegenOptions &Codegen, ByteWriter &W) {
  W.u8(Codegen.FoldDataMovement ? 1 : 0);
  W.u8(Codegen.MaterializeShared ? 1 : 0);
  W.u32(static_cast<uint32_t>(Codegen.ChunkSize));
  // Plan-affecting fusion toggles: the loader must recompile
  // the persisted plan's blocks under the same toggles, or the rebuilt
  // locals/scratch would disagree with the persisted memory plan. The
  // engine knobs (Kernels) stay out.
  W.u8(Codegen.FuseAttention ? 1 : 0);
  W.u8(Codegen.FuseNorm ? 1 : 0);
}

CodegenOptions readOptions(ByteReader &R) {
  CodegenOptions O;
  O.FoldDataMovement = R.u8() != 0;
  O.MaterializeShared = R.u8() != 0;
  O.ChunkSize = static_cast<int>(R.u32());
  O.FuseAttention = R.u8() != 0;
  O.FuseNorm = R.u8() != 0;
  if (R.ok() && (O.ChunkSize < 1 || O.ChunkSize > DftMaxChunk))
    R.fail(formatString("chunk size %d outside [1, %d]", O.ChunkSize,
                        DftMaxChunk));
  return O;
}

} // namespace

std::string dnnfusion::serializeGraphArtifact(const Graph &G) {
  return buildContainer(
      ArtifactKind::Graph, graphEncodingReserve(G),
      {{TagGraph, [&](ByteWriter &W) { serializeGraph(G, W); }}});
}

Expected<Graph> dnnfusion::deserializeGraphArtifact(const std::string &Bytes) {
  auto Sections = parseContainer(Bytes, ArtifactKind::Graph);
  if (!Sections.ok())
    return Sections.status();
  auto It = Sections->find(TagGraph);
  if (It == Sections->end())
    return missingSection(TagGraph);
  ByteReader R = sectionReader(Bytes, It->second);
  Expected<Graph> G = deserializeGraph(R);
  if (G.ok() && !R.atEnd())
    return trailingBytes(TagGraph, R.remaining());
  return G;
}

std::string dnnfusion::serializeCompiledModel(const CompiledModel &M) {
  // PLAN and MEMP take at most 40 bytes per node slot (block members and
  // seeds; three i64 offsets) plus their counts and totals.
  size_t PlanAndMemory = 64 + 40 * static_cast<size_t>(M.G.numNodes());
  return buildContainer(
      ArtifactKind::CompiledModel, graphEncodingReserve(M.G) + PlanAndMemory,
      {{TagGraph, [&](ByteWriter &W) { serializeGraph(M.G, W); }},
       {TagOptions, [&](ByteWriter &W) { writeOptions(M.Codegen, W); }},
       {TagPlan, [&](ByteWriter &W) { serializeFusionPlan(M.Plan, W); }},
       {TagMemory, [&](ByteWriter &W) { serializeMemoryPlan(M.Memory, W); }}});
}

Expected<CompiledModel>
dnnfusion::deserializeCompiledModel(const std::string &Bytes) {
  auto Sections = parseContainer(Bytes, ArtifactKind::CompiledModel);
  if (!Sections.ok())
    return Sections.status();
  for (uint32_t Tag : {TagGraph, TagOptions, TagPlan, TagMemory})
    if (!Sections->count(Tag))
      return missingSection(Tag);

  // Graph: decoded, then validated like any user-supplied graph.
  ByteReader GraphR = sectionReader(Bytes, (*Sections)[TagGraph]);
  Expected<Graph> G = deserializeGraph(GraphR);
  if (!G.ok())
    return G.status();
  if (!GraphR.atEnd())
    return trailingBytes(TagGraph, GraphR.remaining());

  // Codegen options.
  ByteReader OptsR = sectionReader(Bytes, (*Sections)[TagOptions]);
  CodegenOptions Codegen = readOptions(OptsR);
  if (!OptsR.ok())
    return OptsR.status();
  if (!OptsR.atEnd())
    return trailingBytes(TagOptions, OptsR.remaining());

  // Plan parts, rebuilt into a verified plan. planFromOrderedGroups
  // recomputes all derived metadata and aborts on any inconsistency, so
  // trap the diagnostics: a hostile plan must reject, not kill a server.
  ByteReader PlanR = sectionReader(Bytes, (*Sections)[TagPlan]);
  DecodedPlanParts Parts = readFusionPlanParts(PlanR);
  if (!PlanR.ok())
    return PlanR.status();
  if (!PlanR.atEnd())
    return trailingBytes(TagPlan, PlanR.remaining());
  FusionPlan Plan;
  try {
    ScopedFatalErrorTrap Trap;
    Plan = planFromOrderedGroups(*G, std::move(Parts.Groups),
                                 std::move(Parts.Seeds));
  } catch (const detail::TrappedFatalError &E) {
    return Status::errorf(ErrorCode::DataLoss, "persisted plan rejected: %s",
                          E.Message.c_str());
  }

  // Deterministic compilation tail: codegen, memory, stats. The graph was
  // validated by fromParts inside deserializeGraph, as the rebuild requires.
  Expected<CompiledModel> M =
      rebuildCompiledModel(G.takeValue(), std::move(Plan), Codegen);
  if (!M.ok())
    return M.status();

  // Recompute-and-compare integrity: the persisted memory plan must equal
  // what the deterministic planner derives from the decoded graph + plan.
  // A difference means corruption the checksum missed or cross-version
  // drift — reject rather than execute with a layout the blocks were not
  // compiled against.
  ByteReader MemR = sectionReader(Bytes, (*Sections)[TagMemory]);
  MemoryPlan PersistedMemory = readMemoryPlan(MemR);
  if (!MemR.ok())
    return MemR.status();
  if (!MemR.atEnd())
    return trailingBytes(TagMemory, MemR.remaining());
  if (!memoryPlansEqual(PersistedMemory, M->Memory))
    return Status::error(ErrorCode::DataLoss,
                         "persisted memory plan disagrees with the one "
                         "recomputed from the plan");

  return M;
}

Status dnnfusion::saveModel(const CompiledModel &M, const std::string &Path) {
  return writeFileAtomic(Path, serializeCompiledModel(M));
}

Expected<CompiledModel> dnnfusion::loadModel(const std::string &Path) {
  Expected<std::string> Bytes = readFileBytes(Path);
  if (!Bytes.ok())
    return Bytes.status();
  return deserializeCompiledModel(*Bytes);
}

Status dnnfusion::saveGraph(const Graph &G, const std::string &Path) {
  return writeFileAtomic(Path, serializeGraphArtifact(G));
}

Expected<Graph> dnnfusion::loadGraph(const std::string &Path) {
  Expected<std::string> Bytes = readFileBytes(Path);
  if (!Bytes.ok())
    return Bytes.status();
  return deserializeGraphArtifact(*Bytes);
}
