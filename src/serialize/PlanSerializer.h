//===- serialize/PlanSerializer.h - Fusion plan persistence ------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the planning results that make a compiled artifact —
/// FusionPlan and MemoryPlan — as the PLAN/MEMP sections of the container
/// format (docs/FORMAT.md).
///
/// The plan encodes only what cannot be re-derived: the member groups (in
/// block execution order) and per-block seeds. Everything else a
/// FusionBlock carries (FusedType, ExternalInputs, Outputs, BlockOfNode)
/// is a deterministic function of the members and is recomputed on load
/// via planFromOrderedGroups — so a tampered plan file cannot inject
/// metadata inconsistent with its own groups.
///
/// The memory plan IS fully serialized, and the loader recomputes it from
/// the decoded plan and requires equality: since planMemory is
/// deterministic, any difference means corruption or version drift, and
/// the artifact is rejected with a DataLoss Status. Decoders never abort;
/// they latch errors on the ByteReader.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERIALIZE_PLANSERIALIZER_H
#define DNNFUSION_SERIALIZE_PLANSERIALIZER_H

#include "core/FusionPlan.h"
#include "runtime/MemoryPlanner.h"
#include "serialize/ByteStream.h"

namespace dnnfusion {

/// Raw, not-yet-validated parts of a persisted FusionPlan: member groups
/// in block execution order plus per-block seeds. Turned back into a
/// verified plan by planFromOrderedGroups (under a fatal-error trap).
struct DecodedPlanParts {
  std::vector<std::vector<NodeId>> Groups;
  std::vector<NodeId> Seeds;
};

/// Appends the encoding of \p Plan (members + seeds, in block order).
void serializeFusionPlan(const FusionPlan &Plan, ByteWriter &W);

/// Decodes plan parts; on any malformation the reader's sticky status is
/// set and the result is meaningless.
DecodedPlanParts readFusionPlanParts(ByteReader &R);

void serializeMemoryPlan(const MemoryPlan &M, ByteWriter &W);
MemoryPlan readMemoryPlan(ByteReader &R);

/// Field-wise equality (the loader's recompute-and-compare integrity
/// check).
bool memoryPlansEqual(const MemoryPlan &A, const MemoryPlan &B);

} // namespace dnnfusion

#endif // DNNFUSION_SERIALIZE_PLANSERIALIZER_H
