//===- core/FusionAnalysis.h - Mapping type analysis (Table 3) ----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's mapping-type analysis (§3.2, Table 3): for an ordered pair
/// of mapping types (first operator feeding second operator), what is the
/// fused operator's mapping type, and is the fusion profitable (green),
/// dependent on a latency estimate (yellow), or break (red)?
///
/// Reconstruction notes: the paper states 23 code
/// generation rules exist, "one rule corresponding to a green or yellow
/// cell", which pins exactly two red cells in the 5x5 matrix:
/// One-to-Many -> Many-to-Many (Expand feeding Conv destroys contiguity)
/// and Many-to-Many -> Many-to-Many (Conv feeding Conv).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_FUSIONANALYSIS_H
#define DNNFUSION_CORE_FUSIONANALYSIS_H

#include "ops/MappingType.h"

namespace dnnfusion {

/// Outcome of the mapping-type check for one fusion candidate pair,
/// named after Listing 1 in the paper.
enum class FusionVerdict {
  FuseThrough, ///< Green: legal and profitable, fuse without analysis.
  FuseDepend,  ///< Yellow: legal; the cost model decides.
  FuseBreak,   ///< Red: illegal or clearly unprofitable.
};

/// Human-readable name ("green"/"yellow"/"red").
const char *fusionVerdictColor(FusionVerdict V);

/// Mapping type of the operator resulting from fusing \p First (producer)
/// with \p Second (consumer). The higher transformation impedance wins;
/// Reorganize/Shuffle absorb One-to-One; Shuffle composed with Reorganize
/// is Reorganize; Many-to-Many dominates One-to-Many.
MappingType fusedMappingType(MappingType First, MappingType Second);

/// Profitability verdict for fusing \p First into \p Second (Table 3
/// colors).
FusionVerdict fusionVerdict(MappingType First, MappingType Second);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_FUSIONANALYSIS_H
