//===- core/FusionPlanner.h - Fusion plan exploration -------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Light-weight fusion plan exploration (paper §4.3, Listing 1): select
/// One-to-One seed operators with minimal intermediate results, grow each
/// block through the seed's successors then predecessors, deciding every
/// step with the Table 3 mapping-type analysis, a register-pressure-style
/// constraint check, and — for yellow combinations — the analytic cost
/// model (CostModelOracle). A plan is a function of the graph and options
/// alone; docs/ARCHITECTURE.md ("Yellow decisions") says why the paper's
/// profiling database is not reproduced.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_FUSIONPLANNER_H
#define DNNFUSION_CORE_FUSIONPLANNER_H

#include "core/FusionPlan.h"

namespace dnnfusion {

/// Planner configuration; the non-default values exist for the ablation
/// benches (seed policy, yellow handling, constraint threshold).
struct PlannerOptions {
  /// How fusion seeds are chosen among unassigned One-to-One operators.
  /// Ties go to the smaller node id.
  enum class SeedPolicy {
    MinIntermediateResult, ///< The paper's policy (Listing 1).
    MaxIntermediateResult, ///< Ablation: largest intermediate first.
    FirstTopological,      ///< Ablation: first One-to-One in id order.
  };
  SeedPolicy Seeds = SeedPolicy::MinIntermediateResult;

  /// Constraint check (Listing 1 step 2.2): block size cap, a proxy for
  /// register pressure / excessive spills.
  int MaxOpsPerBlock = 64;
  /// Cap on distinct external inputs of a block (second pressure proxy).
  int MaxBlockInputs = 40;

  /// When false, yellow (fuse_depend) candidates are rejected outright
  /// instead of consulting the oracle (ablation).
  bool EnableYellowFusion = true;
};

/// Statistics of one planning run.
struct PlannerStats {
  int SeedsUsed = 0;
  int GreenFusions = 0;
  int YellowAccepted = 0;
  int YellowRejected = 0;
  int RedRejected = 0;
  int ConstraintRejected = 0;
  int CycleRejected = 0;
};

/// Explores fusion plans for \p G. \p Oracle resolves yellow decisions;
/// when null, as compileModel passes it, a CostModelOracle is used.
/// Returns a verified plan whose blocks are in execution order. Seeds come
/// in two rounds (One-to-One operators, then broadcast elementwise ones);
/// each round sorts its eligible operators once, by the seed policy's key
/// and then by id, and every seed is the first of them not yet absorbed
/// into a block.
FusionPlan planFusion(const Graph &G, LatencyOracle *Oracle = nullptr,
                      const PlannerOptions &Options = {},
                      PlannerStats *Stats = nullptr);

/// The trivial no-fusion plan (every operator its own block) — the OurB
/// baseline.
FusionPlan planNoFusion(const Graph &G);

/// Wraps an externally produced partition (e.g. a fixed-pattern baseline
/// fuser's groups) into a verified FusionPlan in execution order. Groups
/// must cover all operator nodes exactly once.
FusionPlan planFromGroups(const Graph &G,
                          const std::vector<std::vector<NodeId>> &Groups);

/// Like planFromGroups, but preserves the given group order as the block
/// execution order instead of recomputing one — the reconstruction path
/// for persisted plans, where the serialized order must survive verbatim
/// (the schedule and memory plan of a saved artifact are keyed on it).
/// The derived per-block metadata (FusedType, ExternalInputs, Outputs,
/// BlockOfNode) is recomputed from the members, so a plan file cannot
/// inject inconsistent metadata. Every violation — id out of range, bad
/// partition, order breaking a dependency — aborts via DNNF_CHECK; a
/// caller handing in untrusted groups runs this under a
/// ScopedFatalErrorTrap and converts the diagnostic to a Status.
FusionPlan planFromOrderedGroups(const Graph &G,
                                 std::vector<std::vector<NodeId>> Groups,
                                 std::vector<NodeId> Seeds = {});

} // namespace dnnfusion

#endif // DNNFUSION_CORE_FUSIONPLANNER_H
