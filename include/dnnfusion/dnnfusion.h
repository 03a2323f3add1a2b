//===- dnnfusion/dnnfusion.h - Public API facade ------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable public surface of the library, in one include:
///
///   #include <dnnfusion/dnnfusion.h>
///
///   using namespace dnnfusion;
///   GraphBuilder B;
///   NodeId X = B.input(Shape({1, 3, 32, 32}), "image");
///   B.markOutput(B.relu(B.conv(X, 8, {3, 3}, {1, 1}, {1, 1})));
///
///   Expected<CompiledModel> Model = compileModel(B.take());
///   if (!Model.ok()) { /* Model.status() explains why */ }
///
///   InferenceSession Session(Model.takeValue());
///   Expected<std::vector<Tensor>> Out =
///       Session.run({{"image", MyImage}});   // named or positional
///
/// Supported types and entry points (everything else under src/ is
/// internal and may change between releases):
///
///   - Tensor, Shape, DType                    — request payloads
///   - GraphBuilder, Graph, NodeId, OpKind     — model construction
///   - CompileOptions, compileModel,
///     compileModelWithPlan, CompiledModel     — the compile boundary
///   - ModelSignature, TensorSpec              — the typed calling convention
///   - InferenceSession, SessionOptions,
///     SessionMetrics, ExecutionStats          — serving (one model)
///   - DynamicBatcher, BatcherOptions,
///     AdmissionController, AdmissionOptions,
///     ModelRegistry, RegistryOptions,
///     ServingStats, LatencyHistogram          — the serving front end:
///     dynamic batching, admission control, multi-model routing
///   - saveModel / loadModel,
///     saveGraph / loadGraph,
///     CompileOptions::CacheDir                — persistence (docs/FORMAT.md)
///   - Status, ErrorCode, Expected<T>          — the recoverable error model
///   - RunControl                              — cooperative deadline/cancel,
///     checked between fusion blocks
///   - RetryPolicy, retrySiteStats             — transient-I/O retry with
///     jittered exponential backoff
///   - FaultInjection, FaultSpec,
///     DNNFUSION_FAULT_SPEC                    — seeded fault injection for
///     chaos testing (zero-cost when disarmed)
///
/// Persistence: saveModel writes a compiled model (graph + fusion plan +
/// memory plan) as one versioned artifact that loadModel
/// restores without re-running planning, with bit-identical execution.
/// Setting CompileOptions::CacheDir makes compileModel do this
/// transparently, keyed on content hash — warm process starts skip the
/// planning cost entirely.
///
/// Error discipline: user-supplied bad input — a malformed graph at the
/// compile boundary, a bad inference request, a corrupted artifact file —
/// comes back as a Status/Expected error. Aborts (DNNF_CHECK) are
/// reserved for internal invariant violations, i.e. library bugs.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_DNNFUSION_H
#define DNNFUSION_DNNFUSION_H

#include "graph/Graph.h"
#include "graph/GraphBuilder.h"
#include "runtime/InferenceSession.h"
#include "runtime/ModelCompiler.h"
#include "runtime/ModelSignature.h"
#include "serialize/GraphSerializer.h"
#include "serialize/ModelSerializer.h"
#include "serving/ModelRegistry.h"
#include "support/FaultInjection.h"
#include "support/Retry.h"
#include "support/Status.h"
#include "tensor/Tensor.h"

#endif // DNNFUSION_DNNFUSION_H
