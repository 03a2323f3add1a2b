//===- tests/GraphFuzz.h - Differential-testing subsystem --------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing subsystem: a seeded random-graph generator that
/// samples DAGs over the full OpKind vocabulary with shape-valid wiring and
/// domain-safe operand construction, runs each graph through the unoptimized
/// reference pipeline and the optimized pipeline under a matrix of
/// CompileOptions, and — on divergence — shrinks the failing graph to a
/// minimal repro printed as GraphBuilder code.
///
/// The pieces compose as:
///
///   FuzzSpec spec = generateSpec(seed);          // pure description (DAG)
///   Graph g      = buildGraph(spec);             // materialized graph
///   auto failure = runDifferential(spec, defaultConfigMatrix());
///   if (failure) {
///     FuzzSpec minimal = shrinkSpec(spec, stillFailsPredicate);
///     printf("%s\n", toBuilderCode(minimal).c_str());
///   }
///
/// or, end-to-end, fuzzOneSeed() which returns a ready-to-print report on
/// failure and an empty string on success.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_TESTS_GRAPHFUZZ_H
#define DNNFUSION_TESTS_GRAPHFUZZ_H

#include "graph/Graph.h"
#include "runtime/ModelCompiler.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dnnfusion {
namespace testutil {

//===----------------------------------------------------------------------===//
// Graph specification
//===----------------------------------------------------------------------===//

/// One node of a fuzz-generated graph description. Operator inputs refer to
/// strictly earlier entries, so every FuzzSpec is a DAG by construction and
/// the node list is already a topological order.
struct FuzzNode {
  OpKind Kind = OpKind::Input;
  /// Indices of input nodes within FuzzSpec::Nodes (operators only).
  std::vector<int> Inputs;
  AttrMap Attrs;
  /// Payload shape for Input and Constant leaves.
  Shape LeafShape;
  /// Uniform fill domain for Constant leaves. Lo == Hi pins an exact value
  /// (printed as GraphBuilder::scalar in repros).
  float ConstLo = -0.5f;
  float ConstHi = 0.5f;
  /// Marked as a model output when building the Graph.
  bool IsOutput = false;
  /// Inferred output shape (cached at generation/mutation time).
  Shape OutShape;

  bool isLeaf() const {
    return Kind == OpKind::Input || Kind == OpKind::Constant;
  }
};

/// A complete, self-contained description of one fuzz graph. Rebuilding the
/// Graph (weights included) from a FuzzSpec is fully deterministic.
struct FuzzSpec {
  uint64_t Seed = 0;
  std::vector<FuzzNode> Nodes;

  /// Number of operator (non-leaf) nodes.
  int numOps() const;
  /// Number of output-marked nodes.
  int numOutputs() const;
  /// True when some node has kind \p K.
  bool contains(OpKind K) const;
};

/// Generator tuning knobs.
struct FuzzConfig {
  /// Operator-emission attempts per graph (each attempt adds one logical
  /// operator plus any domain-guard helpers it needs).
  int MinOps = 6;
  int MaxOps = 22;
  /// Per-node element cap: emitters abandon candidates whose output would
  /// exceed this (keeps Concat/Expand/Resize chains from exploding).
  int64_t MaxElementsPerNode = 8192;
};

/// Samples a random shape-valid DAG over the full OpKind set. Deterministic
/// in \p Seed.
FuzzSpec generateSpec(uint64_t Seed, const FuzzConfig &Config = {});

/// Materializes \p Spec into a Graph (constants are filled deterministically
/// from Spec.Seed). The result passes Graph::verify().
Graph buildGraph(const FuzzSpec &Spec);

/// Renders \p Spec as compilable GraphBuilder code for bug reports.
std::string toBuilderCode(const FuzzSpec &Spec);

//===----------------------------------------------------------------------===//
// Differential execution
//===----------------------------------------------------------------------===//

/// One named optimization configuration of the differential matrix.
struct DiffConfig {
  std::string Name;
  CompileOptions Options;
  /// Per-config tolerances for the vs-reference comparison. Negative =
  /// inherit the matrix-wide defaults passed to runDifferential. Configs
  /// that exercise a deliberate bit-identity relaxation (the fused
  /// attention kernel's online softmax) carry the documented tolerance
  /// explicitly; exact configs stay at the inherited/strict setting.
  float RelTol = -1.0f;
  float AbsTol = -1.0f;
  /// When non-empty: the name of an earlier matrix config this one must
  /// match *bit-for-bit* (tolerance 0), on top of the vs-reference check.
  /// This is how the engine-path and kernel-tier dimensions pin their
  /// exactness guarantees.
  std::string BitIdenticalTo;
};

/// The default configuration matrix: full pipeline, fusion without
/// rewriting, rewriting without fusion, fusion without the §4.4.2 "other"
/// optimizations, the kernel-path dimension (naive GEMM, bit-identical
/// to "full"), the transformer-fusion dimension (fused attention/layernorm
/// off — reference path), and the kernel-tier dimensions (forced scalar,
/// forced avx2 — both bit-identical to "full").
const std::vector<DiffConfig> &defaultConfigMatrix();

/// A reference-vs-optimized divergence.
struct DiffFailure {
  std::string Config; ///< Name of the diverging DiffConfig.
  std::string Message;
};

/// Non-asserting output comparison: a diagnostic message on divergence,
/// std::nullopt on a match. Shared by runDifferential and the gtest-facing
/// helpers in TestUtils.h so both layers report failures uniformly.
std::optional<std::string> compareOutputs(const std::vector<Tensor> &Ref,
                                          const std::vector<Tensor> &Opt,
                                          float RelTol = 2e-3f,
                                          float AbsTol = 2e-3f);

/// Runs \p Spec through the unoptimized reference pipeline and through every
/// configuration in \p Configs, comparing outputs. Returns the first
/// divergence found, or nullopt when all configurations match.
std::optional<DiffFailure>
runDifferential(const FuzzSpec &Spec, const std::vector<DiffConfig> &Configs,
                float RelTol = 2e-3f, float AbsTol = 2e-3f);

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

/// Predicate deciding whether a candidate spec still reproduces the failure
/// being minimized.
using FailPredicate = std::function<bool(const FuzzSpec &)>;

/// Greedy delta-debugging over \p Spec: repeatedly drops extra outputs,
/// bypasses nodes with a same-shape input, and replaces interior operators
/// with fresh model inputs, keeping every reduction for which \p StillFails
/// holds. The result is 1-minimal with respect to these reductions.
FuzzSpec shrinkSpec(const FuzzSpec &Spec, const FailPredicate &StillFails);

/// End-to-end harness for one seed: generate, run the differential matrix,
/// and on failure shrink and format a repro report. Returns "" on success.
std::string fuzzOneSeed(uint64_t Seed, const std::vector<DiffConfig> &Configs,
                        const FuzzConfig &Config = {});

/// The malformed-request dimension: compiles \p Spec, then drives a family
/// of corrupted requests derived from its valid inputs (wrong arity, wrong
/// shape, wrong dtype, null tensor, unknown input name) through an
/// InferenceSession. Every corruption must come back as a clean Status
/// error — never an abort — without leasing a context, and a subsequent
/// valid request must still succeed with accurate session metrics.
/// Returns "" on success, a diagnostic otherwise.
std::string fuzzMalformedRequests(const FuzzSpec &Spec);

/// The serialization dimension: builds \p Spec's graph and checks (1) the
/// binary graph artifact and the text form both round-trip exactly
/// (structure and weights bit-for-bit), (2) a compiled model survives
/// serialize -> deserialize with bit-identical execution on the spec's
/// inputs, and (3) a seed-derived corruption sweep — truncations and bit
/// flips over the serialized blobs — is rejected with a clean Status on
/// every sample, and mutated/truncated text documents never abort the
/// parser (this process is the detector). Returns "" on success, a
/// diagnostic otherwise.
std::string fuzzSerializeRoundtrip(const FuzzSpec &Spec);

/// The fault-injection dimension: arms every known fault point in turn
/// (seeded, intermittent, derived from Spec.Seed) and drives compile —
/// through an on-disk compilation cache so the fileio points bite — plus a
/// burst of serving requests over \p Spec. Required behavior per point:
/// typed Status or success from every API call (std::bad_alloc may escape
/// only from the alloc.* points' compile path — the request boundary
/// converts it), no context-pool leak after drain, and a clean compile +
/// run once the fault is disarmed. An abort kills this process, which is
/// the detector. Returns "" on success, a diagnostic otherwise.
std::string fuzzFaultInjection(const FuzzSpec &Spec);

} // namespace testutil
} // namespace dnnfusion

#endif // DNNFUSION_TESTS_GRAPHFUZZ_H
