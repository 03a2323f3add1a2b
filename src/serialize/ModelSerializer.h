//===- serialize/ModelSerializer.h - Artifact container ----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned container format for persisted artifacts and the public
/// save/load entry points. A file is:
///
///   magic "DNNF" | u32 format version | u32 artifact kind |
///   u64 FNV-1a checksum of everything after this field |
///   u32 section count | sections: { u32 tag, u64 byte length, payload }
///
/// Two artifact kinds exist: a bare graph (GRPH section — model
/// distribution before compilation) and a compiled model (GRPH + OPTS +
/// PLAN + MEMP — the unit the compilation cache stores, loadable without
/// re-running rewrite search, fusion exploration, or profiling).
/// docs/FORMAT.md specifies the layout byte by byte, including the
/// compatibility policy: readers reject any version they do not know and
/// skip unknown sections within a known version.
///
/// Loaders treat files as untrusted input. Every malformed byte stream —
/// truncation, bit flip (caught by the checksum), hostile length prefix,
/// inconsistent plan — comes back as a Status (DataLoss for broken bytes,
/// InvalidGraph for a well-formed file carrying an invalid graph), never
/// an abort; the fuzzer's corrupt-blob dimension enforces this.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERIALIZE_MODELSERIALIZER_H
#define DNNFUSION_SERIALIZE_MODELSERIALIZER_H

#include "runtime/ModelCompiler.h"

#include <string>

namespace dnnfusion {

/// Version of the on-disk format; bumped on any incompatible change (see
/// docs/FORMAT.md for the policy). Also folded into compilation-cache
/// keys so a version bump cold-starts the cache instead of tripping on
/// every entry.
inline constexpr uint32_t SerializedFormatVersion = 3;

/// What a container file holds.
enum class ArtifactKind : uint32_t {
  Graph = 1,
  CompiledModel = 2,
};

//===----------------------------------------------------------------------===//
// In-memory encode/decode (what tests and the fuzzer drive directly)
//===----------------------------------------------------------------------===//

/// Encodes \p G as a graph artifact (container + GRPH section).
std::string serializeGraphArtifact(const Graph &G);

/// Decodes a graph artifact.
Expected<Graph> deserializeGraphArtifact(const std::string &Bytes);

/// Encodes \p M as a compiled-model artifact.
std::string serializeCompiledModel(const CompiledModel &M);

/// Decodes a compiled-model artifact: validates the graph, trap-verifies
/// the plan, reruns deterministic codegen and memory planning, and
/// cross-checks the recomputed memory plan against the persisted section
/// (recompute-and-compare integrity).
Expected<CompiledModel> deserializeCompiledModel(const std::string &Bytes);

//===----------------------------------------------------------------------===//
// File entry points (exported through the dnnfusion.h facade)
//===----------------------------------------------------------------------===//

/// Persists \p M to \p Path (atomic write: temp file + rename).
Status saveModel(const CompiledModel &M, const std::string &Path);

/// Loads a compiled model persisted by saveModel. The result runs
/// bit-identically to the model that was saved.
Expected<CompiledModel> loadModel(const std::string &Path);

/// Persists just the graph of a model (weights included) to \p Path.
Status saveGraph(const Graph &G, const std::string &Path);

/// Loads a graph persisted by saveGraph, ready for compileModel.
Expected<Graph> loadGraph(const std::string &Path);

} // namespace dnnfusion

#endif // DNNFUSION_SERIALIZE_MODELSERIALIZER_H
