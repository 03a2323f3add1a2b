//===- runtime/ExecutionContext.cpp - Model execution ----------------------------===//

#include "runtime/ExecutionContext.h"

#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <cstring>
#include <new>

using namespace dnnfusion;

ExecutionContext::ExecutionContext(const CompiledModel &Model,
                                   const ExecutionOptions &)
    : M(Model) {
  // alloc.arena simulates context-construction OOM — the pool-growth path
  // InferenceSession::acquire must survive (it catches bad_alloc, restores
  // its slot accounting, and surfaces ResourceExhausted).
  if (faultShouldFail(faultpoints::AllocArena))
    throw std::bad_alloc();
  Arena.resize(static_cast<size_t>(elementsForBytes(M.Memory.ArenaBytes)));
  Scratch.resize(static_cast<size_t>(elementsForBytes(M.Memory.ScratchBytes)));
  Pack.resize(static_cast<size_t>(elementsForBytes(M.Memory.PackScratchBytes)));
}

const float *ExecutionContext::valuePtr(NodeId Id,
                                        const std::vector<Tensor> &Inputs) const {
  const Node &N = M.G.node(Id);
  if (N.Kind == OpKind::Constant)
    return N.ConstValue.data();
  if (N.Kind == OpKind::Input) {
    for (size_t I = 0; I < M.InputIds.size(); ++I)
      if (M.InputIds[I] == Id)
        return Inputs[I].data();
    reportFatalErrorf("input node %d not bound", Id);
  }
  int64_t Offset = M.Memory.ArenaOffsetOfNode[static_cast<size_t>(Id)];
  DNNF_CHECK(Offset >= 0, "node %d has no arena buffer", Id);
  return Arena.data() + elementIndexForByteOffset(Offset);
}

namespace {

/// Polls \p Control before a block: the abort Status once the run is
/// cancelled or past its deadline, Ok otherwise.
Status checkpoint(const RunControl &Control) {
  if (!Control.active())
    return Status();
  if (Control.Cancel && Control.Cancel->load(std::memory_order_relaxed))
    return Status::error(ErrorCode::FailedPrecondition,
                         "run cancelled at block checkpoint");
  if (std::chrono::steady_clock::now() >= Control.Deadline)
    return Status::error(ErrorCode::DeadlineExceeded,
                         "deadline expired at block checkpoint");
  return Status();
}

} // namespace

Status ExecutionContext::runBlock(size_t BI, const std::vector<Tensor> &Inputs,
                                  std::vector<double> *PerBlockMs,
                                  EngineCounters *Counters) {
  // The per-block fault hook: a faulting block aborts the run with a typed
  // Status instead of corrupting downstream blocks.
  if (faultShouldFail(faultpoints::ExecBlock))
    return Status::errorf(ErrorCode::Internal,
                          "injected fault exec.block in block %zu", BI);
  const CompiledBlock &CB = M.Blocks[BI];
  BlockIo Io;
  Io.Externals.reserve(CB.ExternalInputs.size());
  for (NodeId In : CB.ExternalInputs)
    Io.Externals.push_back(valuePtr(In, Inputs));
  Io.LocalPtrs.reserve(CB.Locals.size());
  int64_t ScratchCursor = 0;
  for (const CompiledBlock::LocalBuffer &L : CB.Locals) {
    if (L.IsBlockOutput) {
      int64_t Offset = M.Memory.ArenaOffsetOfNode[static_cast<size_t>(L.Node)];
      DNNF_CHECK(Offset >= 0, "block output %d has no arena slot", L.Node);
      Io.LocalPtrs.push_back(Arena.data() + elementIndexForByteOffset(Offset));
    } else {
      Io.LocalPtrs.push_back(Scratch.data() +
                             elementIndexForByteOffset(ScratchCursor));
      ScratchCursor += L.Sh.numElements() * static_cast<int64_t>(sizeof(float));
    }
  }
  DNNF_CHECK(ScratchCursor <= M.Memory.ScratchBytes,
             "scratch overflow in block %zu", BI);

  BlockRuntime Rt;
  Rt.Prepack = &M.Prepack;
  Rt.PackScratch = Pack.data();
  Rt.PackScratchElems = static_cast<int64_t>(Pack.size());
  Rt.Counters = Counters;

  if (PerBlockMs) {
    WallTimer BlockTimer;
    executeBlock(CB, Io, M.Codegen, Rt);
    (*PerBlockMs)[BI] = BlockTimer.millis();
  } else {
    executeBlock(CB, Io, M.Codegen, Rt);
  }
  return Status();
}

std::vector<Tensor> ExecutionContext::run(const std::vector<Tensor> &Inputs,
                                          ExecutionStats *Stats,
                                          bool PerBlockTiming) {
  return cantFail(tryRun(Inputs, Stats, PerBlockTiming, RunControl()));
}

Expected<std::vector<Tensor>>
ExecutionContext::tryRun(const std::vector<Tensor> &Inputs,
                         ExecutionStats *Stats, bool PerBlockTiming,
                         const RunControl &Control) {
  DNNF_CHECK(Inputs.size() == M.InputIds.size(),
             "expected %zu inputs, got %zu", M.InputIds.size(), Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I)
    DNNF_CHECK(Inputs[I].shape() == M.G.node(M.InputIds[I]).OutShape,
               "input %zu shape %s does not match model shape %s", I,
               Inputs[I].shape().toString().c_str(),
               M.G.node(M.InputIds[I]).OutShape.toString().c_str());

  WallTimer Total;
  std::vector<double> PerBlockMs;
  if (PerBlockTiming)
    PerBlockMs.assign(M.Blocks.size(), 0.0);
  EngineCounters Counters;
  for (size_t BI = 0; BI < M.Blocks.size(); ++BI) {
    Status Abort = checkpoint(Control);
    if (Abort.ok())
      Abort = runBlock(BI, Inputs, PerBlockTiming ? &PerBlockMs : nullptr,
                       Stats ? &Counters : nullptr);
    // The context is clean for reuse right away: arena/scratch contents
    // are garbage, but every run rewrites what it reads.
    if (!Abort.ok())
      return Abort;
  }

  if (Stats) {
    *Stats = ExecutionStats();
    Stats->PeakArenaBytes = M.Memory.ArenaBytes;
    for (size_t BI = 0; BI < M.Blocks.size(); ++BI) {
      ++Stats->KernelLaunches;
      Stats->Flops += M.BlockFlops[BI];
      Stats->MainBytesRead += M.BlockBytesRead[BI];
      Stats->MainBytesWritten += M.BlockBytesWritten[BI];
      Stats->ScratchBytes += M.BlockScratchBytes[BI];
    }
    Stats->Engine = Counters;
    if (PerBlockTiming)
      Stats->PerBlockMs = std::move(PerBlockMs);
    Stats->WallMs = Total.millis();
  }

  std::vector<Tensor> Outputs;
  try {
    for (NodeId Out : M.G.outputs()) {
      Tensor T(M.G.node(Out).OutShape);
      std::memcpy(T.data(), valuePtr(Out, Inputs), T.byteSize());
      Outputs.push_back(std::move(T));
    }
  } catch (const std::bad_alloc &) {
    return Status::error(ErrorCode::ResourceExhausted,
                         "out of memory allocating run outputs");
  }
  return Outputs;
}
