//===- ops/KernelsGemmPacked.h - Packed register-blocked GEMM -----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed GEMM engine behind the Many-to-Many hot path: the B operand
/// is repacked into NR-wide column panels (contiguous K-major streams) and
/// consumed by an i-k-j register-blocked micro kernel that keeps a
/// rows x NR accumulator tile live across the whole K loop. The panel
/// layout cuts B's main-memory traffic by the row block versus the naive
/// row-walk kernels and lets the inner j loop vectorize over a
/// compile-time panel width.
///
/// The geometry is fixed: panels are GemmNarrowNR (8) or GemmWideNR (32)
/// wide, and the scalar tile blocks GemmTileRows (8) rows. No other wide
/// width won across the model zoo: 16- and 8-wide panels let more N > 8
/// shapes pack, a few percent faster on some transformers and up to 9%
/// slower on some CNNs (per-model medians on a 4-vCPU AVX2 host), with
/// bit-identical outputs at every width.
///
/// One route decision (gemmRoute) picks one of three routes for a
/// MatMul/Gemm call:
///
///  - Panel: B packs into column panels for the micro kernel. Wide
///    problems (N > 8) and Conv's im2col columns pack at GemmWideNR;
///    narrow ones (N = 5..8, and N <= 4 with A stored transposed) pack
///    into a single GemmNarrowNR panel, which the AVX2 tier runs on an
///    8-row x 8-column tile.
///  - NarrowRows (N <= 4 with contiguous A rows: a weight-stationary
///    W[M,K] x X[K,B] layer at a serving batch B <= 4): nothing packs. The
///    AVX2 tile transposes 8 rows x 8 k of A in registers and multiplies
///    each k's 8-row column by broadcasts of B[k, j] read in place, so no
///    lane multiplies padding. Its work grows with N while the panel
///    tile's stays at 8 columns: on one core it took 0.27-0.84x the
///    panel's time at N <= 4, 0.6-1.5x at N = 5..6 and 1.1-1.6x at
///    N = 7..8 over the serving MLP's layers, hence the cut at 4. At the
///    scalar tier the route runs gemmNarrowRowsScalar, the same 8-row
///    blocking with scalar accumulators.
///  - Naive: the row walk in KernelsMatMul.cpp, for everything else.
///
/// Bit-identity contract: for every output element the micro kernel
/// accumulates products in strictly ascending k order, exactly like the
/// naive i-k-j kernels in KernelsMatMul.cpp — register blocking spans
/// *different* output elements (i and j), never the reduction axis — so a
/// packed result is bit-identical to the naive result. RowBias reproduces
/// the direct convolution's bias-first accumulation for the im2col path.
///
/// On the panel route, constant weights are packed once at model-compile
/// time (the prepack store on CompiledModel, rebuilt on loadModel);
/// activation operands pack at run time into the execution context's
/// packing buffer.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_KERNELSGEMMPACKED_H
#define DNNFUSION_OPS_KERNELSGEMMPACKED_H

#include "ops/Attributes.h"
#include "ops/KernelRegistry.h"
#include "ops/OpKind.h"
#include "tensor/Shape.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace dnnfusion {

/// The two panel widths the packed tiles take: every N <= 8 problem not
/// on the narrow-rows route packs into one GemmNarrowNR panel; Conv and
/// MatMul/Gemm problems with N > 8 pack into GemmWideNR panels.
inline constexpr int GemmNarrowNR = 8;
inline constexpr int GemmWideNR = 32;

/// Rows the scalar packed tile blocks per accumulator tile (the AVX2 tile
/// re-blocks per panel width).
inline constexpr int GemmTileRows = 8;

/// Elements one packed [K, N] operand occupies: ceil(N / NR) panels of
/// K * NR floats each (the tail panel is zero-padded to full width).
int64_t packedPanelElems(int64_t K, int64_t N, int NR);

/// Packs a logical [K, N] operand into NR-wide column panels. Element
/// (k, n) is read from B[k * KStride + n * NStride], so transposed layouts
/// pack by swapping the strides — the packed form is always K-major.
void packBPanels(const float *B, int64_t KStride, int64_t NStride, int64_t K,
                 int64_t N, int NR, float *Packed);

/// Zero-filled float storage whose first element starts on a 64-byte
/// cache line, wherever the heap put the block: the AVX2 tile reads a
/// packed panel in 32-byte rows, and a panel that starts 16 bytes into a
/// line makes every other row straddle two lines. Holds every packed
/// panel: the prepacked weights and the execution context's packing
/// buffer. The block is an ordinary heap allocation with 15 floats of
/// slack (an over-aligned operator new raised the zoo's peak memory).
/// Start points into the object's own block, so copies realign and moves
/// hand it over.
class AlignedFloats {
public:
  AlignedFloats() = default;
  AlignedFloats(const AlignedFloats &O) { *this = O; }
  AlignedFloats(AlignedFloats &&O) noexcept { *this = std::move(O); }
  AlignedFloats &operator=(const AlignedFloats &O) {
    if (this != &O) {
      resize(O.Len);
      std::copy_n(O.Start, O.Len, Start);
    }
    return *this;
  }
  AlignedFloats &operator=(AlignedFloats &&O) noexcept {
    Storage = std::move(O.Storage);
    Start = std::exchange(O.Start, nullptr);
    Len = std::exchange(O.Len, 0);
    return *this;
  }

  /// Reallocates to \p N zeros; the old contents are dropped.
  void resize(size_t N) {
    constexpr size_t Line = 64;
    Storage.assign(N + Line / sizeof(float) - 1, 0.0f);
    void *P = Storage.data();
    size_t Space = Storage.size() * sizeof(float);
    Start = static_cast<float *>(std::align(Line, N * sizeof(float), P, Space));
    Len = N;
  }
  float *data() { return Start; }
  const float *data() const { return Start; }
  size_t size() const { return Len; }

private:
  std::vector<float> Storage;
  float *Start = nullptr;
  size_t Len = 0;
};

/// One operand packed by packBPanels, optionally batched: slice s (of a
/// batched MatMul B) starts at Data[s * packedPanelElems(K, N, NR)].
struct PackedOperand {
  AlignedFloats Data;
  int64_t K = 0;
  int64_t N = 0;
  int NR = 8;
  int64_t Slices = 1;

  int64_t sliceElems() const { return packedPanelElems(K, N, NR); }
  const float *slice(int64_t S) const { return Data.data() + S * sliceElems(); }
  /// True when this prepack matches the problem a kernel is about to run.
  bool matches(int64_t Kk, int64_t Nn, int NRr, int64_t SliceCount) const {
    return K == Kk && N == Nn && NR == NRr && Slices == SliceCount &&
           Data.size() ==
               static_cast<size_t>(sliceElems() * Slices);
  }
};

/// Computes C rows [RowBegin, RowEnd) of a [*, N] output against a packed
/// [K, N] operand. A element (i, k) is read from
/// A[i * ARowStride + k * AColStride]; C row i starts at C + i * CRowStride
/// and receives exactly N stores. Accumulators initialize to RowBias[i]
/// when RowBias is non-null (direct-conv bias-first order) and to 0.0f
/// otherwise, then accumulate in ascending k order.
///
/// \p NR is GemmNarrowNR or GemmWideNR; both tiers report any other
/// width as a fatal error before a single store. \p Level selects the
/// dispatch tier (resolveGemmPackedRows); every caller names it. The
/// scalar micro tile runs whenever no AVX2 tile resolves (Level Scalar or
/// an unsupported host). Scalar and Avx2 results are bit-identical.
void gemmPackedRows(const float *A, int64_t ARowStride, int64_t AColStride,
                    const float *Packed, float *C, int64_t CRowStride,
                    int64_t RowBegin, int64_t RowEnd, int64_t N, int64_t K,
                    int NR, const float *RowBias, KernelLevel Level);

/// The scalar micro tile behind gemmPackedRows (GemmTileRows x NR
/// accumulators) — the fallback of resolveGemmPackedRows and the
/// reference the AVX2 tile is differenced against.
void gemmPackedRowsScalar(const float *A, int64_t ARowStride,
                          int64_t AColStride, const float *Packed, float *C,
                          int64_t CRowStride, int64_t RowBegin, int64_t RowEnd,
                          int64_t N, int64_t K, int NR, const float *RowBias);

/// The scalar narrow-rows tile (a GemmNarrowRowsFn, 1 <= N <=
/// GemmNarrowRowsMaxN): 8 rows x N accumulators with B read in place and
/// products added in ascending k. The fallback of resolveGemmNarrowRows,
/// bit-identical to the AVX2 tile and the naive row walk.
void gemmNarrowRowsScalar(const float *A, const float *B, int64_t BKStride,
                          int64_t BNStride, float *C, int64_t RowBegin,
                          int64_t RowEnd, int64_t N, int64_t K);

/// Run-time packing buffer: an externally provided scratch span when it
/// is large enough, a heap allocation otherwise (direct kernel calls
/// outside a compiled model carry no scratch). One acquisition policy for
/// every kernel that packs at run time.
struct PackBuffer {
  std::vector<float> Heap;

  float *acquire(float *Scratch, int64_t ScratchElems, int64_t Elems) {
    if (Scratch && ScratchElems >= Elems)
      return Scratch;
    Heap.resize(static_cast<size_t>(Elems));
    return Heap.data();
  }
};

/// Widest N the narrow-rows route takes (see the file comment for the
/// measurement behind it).
inline constexpr int GemmNarrowRowsMaxN = 4;

/// The kernel one MatMul/Gemm problem runs on (see the file comment).
struct GemmRoute {
  enum Kind : uint8_t {
    Naive,      ///< The naive row walk.
    Panel,      ///< The packed engine over NR-wide panels of B.
    NarrowRows, ///< The narrow-rows tile (GemmNarrowRowsFn); the scalar
                ///< one when no AVX2 tile resolves.
  };
  Kind Path = Naive;
  /// Panel width B packs at; 0 unless Path is Panel.
  int NR = 0;
};

/// The route of one [M, K] x [K, N] MatMul/Gemm problem. \p M counts the
/// rows that reuse one B (for a batched MatMul, every batch's rows over
/// one B slice); \p TransA says A is stored transposed (Gemm transA = 1),
/// so its rows are not contiguous; \p Prepacked says B comes from the
/// prepack store, so no run-time packing pass needs amortizing. Only the
/// Panel route packs: NarrowRows and Naive reserve no pack scratch and
/// prepack nothing. A node's route comes from GemmDims::route (below).
///
///  - Naive when Config.UsePackedGemm is off, K < 2 or N < 1 (an empty
///    output has nothing to tile).
///  - N <= 8: naive when M < 4, prepacked or not. Otherwise NarrowRows
///    when N <= GemmNarrowRowsMaxN and A's rows are contiguous, else a
///    GemmNarrowNR panel. Both tiles replace the naive walk's one
///    dependent add chain per row with independent accumulators over 8
///    rows; the panel pays for it in padded SIMD lanes, the narrow-rows
///    tile in register transposes.
///  - N > 8: a GemmWideNR panel. Naive when the tail-padded columns would
///    exceed a third of the useful ones (waste/N > 1/3), and
///    — unless B is prepacked — when M < 4 or M * N * K < 16384, too small
///    to repay the K * N packing pass.
GemmRoute gemmRoute(const KernelConfig &Config, int64_t M, int64_t N,
                    int64_t K, bool TransA, bool Prepacked);

/// The GEMM view of one MatMul or Gemm node: Batches output [M, N]
/// matrices, each the product of an [M, K] A matrix and one of BSlices
/// [K, N] B slices. MatMul batches over, and broadcasts, its leading dims;
/// Gemm is one problem whose A and B may be stored transposed. The kernel
/// runner, the pack-scratch sizer and buildPrepack all read a node through
/// this one description and route it through route(), so what is packed,
/// sized and run cannot disagree.
struct GemmDims {
  int64_t M = 0, N = 0, K = 0;
  int64_t Batches = 1; ///< Product of the output's leading dims.
  int64_t BSlices = 1; ///< Product of B's leading dims.
  /// Output rows that multiply one B slice: M times every output batch dim
  /// that B broadcasts over.
  int64_t RowsPerSlice = 0;
  bool TransA = false, TransB = false;

  /// A element (i, k) of a batch sits at i * aRowStride() + k * aColStride().
  int64_t aRowStride() const { return TransA ? 1 : K; }
  int64_t aColStride() const { return TransA ? M : 1; }
  /// B element (k, n) of a slice sits at k * bKStride() + n * bNStride().
  int64_t bKStride() const { return TransB ? 1 : N; }
  int64_t bNStride() const { return TransB ? K : 1; }

  GemmRoute route(const KernelConfig &Config, bool Prepacked) const {
    return gemmRoute(Config, RowsPerSlice, N, K, TransA, Prepacked);
  }
};

/// The GemmDims of a MatMul or Gemm with inputs \p A, \p B and output
/// \p Out (shapes as inferred).
GemmDims gemmDims(OpKind Kind, const AttrMap &Attrs, const Shape &A,
                  const Shape &B, const Shape &Out);

} // namespace dnnfusion

#endif // DNNFUSION_OPS_KERNELSGEMMPACKED_H
