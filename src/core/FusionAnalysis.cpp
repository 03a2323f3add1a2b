//===- core/FusionAnalysis.cpp - Mapping type analysis (Table 3) --------------===//

#include "core/FusionAnalysis.h"

using namespace dnnfusion;

const char *dnnfusion::fusionVerdictColor(FusionVerdict V) {
  switch (V) {
  case FusionVerdict::FuseThrough:
    return "green";
  case FusionVerdict::FuseDepend:
    return "yellow";
  case FusionVerdict::FuseBreak:
    return "red";
  }
  return "?";
}

MappingType dnnfusion::fusedMappingType(MappingType First,
                                        MappingType Second) {
  int Ia = transformationImpedance(First);
  int Ib = transformationImpedance(Second);
  if (Ia != Ib)
    return Ia > Ib ? First : Second;
  // Equal impedance.
  if (Ia == 0)
    return MappingType::OneToOne;
  if (Ia == 1) {
    // Two pure index-permutation/redimension operators compose into one
    // 1-1 index map: Shuffle only survives when both sides shuffle.
    if (First == MappingType::Shuffle && Second == MappingType::Shuffle)
      return MappingType::Shuffle;
    return MappingType::Reorganize;
  }
  // Impedance 2: Many-to-Many dominates One-to-Many.
  if (First == MappingType::ManyToMany || Second == MappingType::ManyToMany)
    return MappingType::ManyToMany;
  return MappingType::OneToMany;
}

FusionVerdict dnnfusion::fusionVerdict(MappingType First, MappingType Second) {
  // The two red cells (see header): a One-to-Many or Many-to-Many producer
  // feeding a Many-to-Many consumer.
  if (Second == MappingType::ManyToMany &&
      (First == MappingType::OneToMany || First == MappingType::ManyToMany))
    return FusionVerdict::FuseBreak;

  // One-to-One fuses green with everything, in both orders (§3.2 "fuse Add
  // and GEMM in either order").
  if (First == MappingType::OneToOne || Second == MappingType::OneToOne)
    return FusionVerdict::FuseThrough;

  // Reorganize/Shuffle among themselves compose freely.
  int Ia = transformationImpedance(First);
  int Ib = transformationImpedance(Second);
  if (Ia == 1 && Ib == 1)
    return FusionVerdict::FuseThrough;

  // Expand-style replication chains keep their access pattern.
  if (First == MappingType::OneToMany && Second == MappingType::OneToMany)
    return FusionVerdict::FuseThrough;

  // Every remaining mix of {Reorganize, Shuffle} with {One-to-Many,
  // Many-to-Many} (either order), plus Many-to-Many -> One-to-Many, can
  // damage access patterns or duplicate work: estimate to decide (§3.2).
  return FusionVerdict::FuseDepend;
}
