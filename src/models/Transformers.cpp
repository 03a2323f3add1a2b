//===- models/Transformers.cpp - The six NLP models -----------------------------===//
//
// TinyBERT, DistilBERT, ALBERT, BERT-base, MobileBERT, and GPT-2, built
// from primitive operators the way mobile exporters emit them: LayerNorm
// decomposed into ReduceMean/Sub/Square/Add/Sqrt/Div (the exact sequence
// the paper observes in TinyBERT, §6), GELU decomposed via Erf or the tanh
// approximation, attention with explicit Reshape/Transpose around the
// matrix multiplies ("MatMul + Reshape + Transpose + Add in GPT-2", §6).
// Hidden sizes and sequence lengths are scaled down.
//
//===----------------------------------------------------------------------===//

#include "models/ModelZoo.h"

#include "graph/GraphBuilder.h"
#include "tensor/TensorUtils.h"

#include <cmath>

using namespace dnnfusion;

namespace {

struct TransformerConfig {
  uint64_t Seed = 1;
  /// Leading (batch) dimension. Weight-creation order does not depend on
  /// it, so every batch of one model carries identical weights — the
  /// contract the serving layer's batch-variant compilation relies on.
  int64_t Batch = 1;
  int Layers = 4;
  int64_t Hidden = 64;
  int64_t Heads = 4;
  int64_t Ffn = 128;
  int64_t Seq = 32;
  /// Decoder-style causal attention mask (GPT-2).
  bool Causal = false;
  /// Decompose Softmax into ReduceMax/Sub/Exp/ReduceSum/Div (fine-grained
  /// exports such as GPT-2's).
  bool DecomposedSoftmax = false;
  /// Erf-based GELU (BERT family) vs tanh approximation (GPT-2).
  bool TanhGelu = false;
  /// MobileBERT bottleneck blocks: narrow attention width plus stacked
  /// feed-forward networks.
  bool Bottleneck = false;
  int StackedFfns = 1;
  int64_t Vocab = 64;
};

/// GELU via the tanh approximation:
/// 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).
NodeId tanhGelu(GraphBuilder &B, NodeId X) {
  NodeId X2 = B.mul(X, X);
  NodeId X3 = B.mul(X2, X);
  NodeId Inner = B.add(X, B.mul(X3, B.scalar(0.044715f)));
  NodeId T = B.tanhOp(B.mul(Inner, B.scalar(0.79788456f)));
  return B.mul(B.mul(X, B.scalar(0.5f)), B.add(T, B.scalar(1.0f)));
}

NodeId gelu(GraphBuilder &B, NodeId X, const TransformerConfig &Cfg) {
  return Cfg.TanhGelu ? tanhGelu(B, X) : B.geluDecomposed(X);
}

/// Softmax over the last axis, optionally decomposed.
NodeId softmaxLast(GraphBuilder &B, NodeId X, const TransformerConfig &Cfg) {
  if (!Cfg.DecomposedSoftmax)
    return B.softmax(X, -1);
  AttrMap Reduce;
  Reduce.set("axes", std::vector<int64_t>{-1}).set("keepdims", 1);
  NodeId Max = B.op(OpKind::ReduceMax, {X}, Reduce);
  NodeId E = B.unary(OpKind::Exp, B.sub(X, Max));
  NodeId Sum = B.op(OpKind::ReduceSum, {E}, Reduce);
  return B.div(E, Sum);
}

/// Multi-head self-attention over [Batch, Seq, Width].
NodeId selfAttention(GraphBuilder &B, NodeId X, int64_t Width,
                     const TransformerConfig &Cfg, NodeId CausalMask) {
  int64_t Dh = Width / Cfg.Heads;
  auto Project = [&](NodeId In) {
    NodeId P = B.linear(In, Width);
    NodeId R = B.reshape(P, {Cfg.Batch, Cfg.Seq, Cfg.Heads, Dh});
    return B.transpose(R, {0, 2, 1, 3}); // [N, H, S, Dh]
  };
  NodeId Q = Project(X);
  NodeId K = Project(X);
  NodeId V = Project(X);
  NodeId Kt = B.transpose(K, {0, 1, 3, 2}); // [N, H, Dh, S]
  NodeId Scores = B.op(OpKind::MatMul, {Q, Kt});
  NodeId Scaled =
      B.mul(Scores, B.scalar(1.0f / std::sqrt(static_cast<float>(Dh))));
  if (CausalMask != InvalidNodeId)
    Scaled = B.add(Scaled, CausalMask);
  NodeId Probs = softmaxLast(B, Scaled, Cfg);
  NodeId Ctx = B.op(OpKind::MatMul, {Probs, V}); // [N, H, S, Dh]
  NodeId Merged = B.reshape(B.transpose(Ctx, {0, 2, 1, 3}),
                            {Cfg.Batch, Cfg.Seq, Width});
  return B.linear(Merged, Width);
}

Graph buildTransformer(const TransformerConfig &Cfg) {
  GraphBuilder B(Cfg.Seed);
  NodeId X = B.input(Shape({Cfg.Batch, Cfg.Seq, Cfg.Hidden}),
                     "embedded_tokens");
  // Positional encoding. Kept at batch 1 (broadcast over the leading dim)
  // so the weight tensor is identical at every batch.
  NodeId Pos = B.weight(Shape({1, Cfg.Seq, Cfg.Hidden}), 0.1f);
  NodeId H = B.add(X, Pos);

  NodeId CausalMask = InvalidNodeId;
  if (Cfg.Causal) {
    Tensor Mask(Shape({1, 1, Cfg.Seq, Cfg.Seq}));
    for (int64_t I = 0; I < Cfg.Seq; ++I)
      for (int64_t J = 0; J < Cfg.Seq; ++J)
        Mask.at(I * Cfg.Seq + J) = J <= I ? 0.0f : -1e9f;
    CausalMask = B.graph().addConstant(std::move(Mask), "causal_mask");
  }

  int64_t AttnWidth = Cfg.Bottleneck ? Cfg.Hidden / 2 : Cfg.Hidden;
  for (int L = 0; L < Cfg.Layers; ++L) {
    NodeId BlockIn = H;
    // MobileBERT bottleneck: narrow the representation before attention.
    if (Cfg.Bottleneck)
      BlockIn = B.layerNormDecomposed(B.linear(H, AttnWidth), AttnWidth);

    NodeId Normed = B.layerNormDecomposed(BlockIn, AttnWidth);
    NodeId Attn = selfAttention(B, Normed, AttnWidth, Cfg, CausalMask);
    NodeId Res1 = B.add(BlockIn, Attn);

    NodeId FfnIn = Res1;
    for (int S = 0; S < Cfg.StackedFfns; ++S) {
      NodeId N2 = B.layerNormDecomposed(FfnIn, AttnWidth);
      NodeId Up = gelu(B, B.linear(N2, Cfg.Ffn), Cfg);
      NodeId Down = B.linear(Up, AttnWidth);
      FfnIn = B.add(FfnIn, Down);
    }

    if (Cfg.Bottleneck) {
      // Widen back and rejoin the residual stream.
      NodeId Widened = B.linear(FfnIn, Cfg.Hidden);
      H = B.layerNormDecomposed(B.add(H, Widened), Cfg.Hidden);
    } else {
      H = FfnIn;
    }
  }

  NodeId Final = B.layerNormDecomposed(H, Cfg.Hidden);
  NodeId Logits = B.linear(Final, Cfg.Vocab);
  NodeId Probs = B.softmax(Logits, -1);
  B.markOutput(Probs);
  Graph G = B.take();
  G.verify();
  return G;
}

TransformerConfig tinyBertConfig() {
  TransformerConfig Cfg;
  Cfg.Seed = 101;
  Cfg.Layers = 4;
  Cfg.Hidden = 64;
  Cfg.Heads = 4;
  Cfg.Ffn = 128;
  Cfg.Seq = 32;
  return Cfg;
}

TransformerConfig distilBertConfig() {
  TransformerConfig Cfg;
  Cfg.Seed = 102;
  Cfg.Layers = 6;
  Cfg.Hidden = 96;
  Cfg.Heads = 6;
  Cfg.Ffn = 192;
  Cfg.Seq = 40;
  return Cfg;
}

TransformerConfig albertConfig() {
  // ALBERT shares weights across layers but still *executes* every layer;
  // structurally the executed graph matches a 12-layer encoder.
  TransformerConfig Cfg;
  Cfg.Seed = 103;
  Cfg.Layers = 12;
  Cfg.Hidden = 96;
  Cfg.Heads = 6;
  Cfg.Ffn = 192;
  Cfg.Seq = 40;
  return Cfg;
}

TransformerConfig bertBaseConfig() {
  TransformerConfig Cfg;
  Cfg.Seed = 104;
  Cfg.Layers = 12;
  Cfg.Hidden = 128;
  Cfg.Heads = 8;
  Cfg.Ffn = 256;
  Cfg.Seq = 40;
  return Cfg;
}

TransformerConfig mobileBertConfig() {
  TransformerConfig Cfg;
  Cfg.Seed = 105;
  Cfg.Layers = 24;
  Cfg.Hidden = 64;
  Cfg.Heads = 4;
  Cfg.Ffn = 128;
  Cfg.Seq = 32;
  Cfg.Bottleneck = true;
  Cfg.StackedFfns = 4;
  return Cfg;
}

TransformerConfig gpt2Config() {
  TransformerConfig Cfg;
  Cfg.Seed = 106;
  Cfg.Layers = 24;
  Cfg.Hidden = 96;
  Cfg.Heads = 6;
  Cfg.Ffn = 192;
  Cfg.Seq = 48;
  Cfg.Causal = true;
  Cfg.DecomposedSoftmax = true;
  Cfg.TanhGelu = true;
  return Cfg;
}

Graph buildAtBatch(TransformerConfig Cfg, int64_t Batch) {
  Cfg.Batch = Batch;
  return buildTransformer(Cfg);
}

} // namespace

Graph dnnfusion::buildTinyBert() { return buildTransformer(tinyBertConfig()); }
Graph dnnfusion::buildTinyBertBatched(int64_t Batch) {
  return buildAtBatch(tinyBertConfig(), Batch);
}

Graph dnnfusion::buildDistilBert() {
  return buildTransformer(distilBertConfig());
}
Graph dnnfusion::buildDistilBertBatched(int64_t Batch) {
  return buildAtBatch(distilBertConfig(), Batch);
}

Graph dnnfusion::buildAlbert() { return buildTransformer(albertConfig()); }
Graph dnnfusion::buildAlbertBatched(int64_t Batch) {
  return buildAtBatch(albertConfig(), Batch);
}

Graph dnnfusion::buildBertBase() { return buildTransformer(bertBaseConfig()); }
Graph dnnfusion::buildBertBaseBatched(int64_t Batch) {
  return buildAtBatch(bertBaseConfig(), Batch);
}

Graph dnnfusion::buildMobileBert() {
  return buildTransformer(mobileBertConfig());
}
Graph dnnfusion::buildMobileBertBatched(int64_t Batch) {
  return buildAtBatch(mobileBertConfig(), Batch);
}

Graph dnnfusion::buildGpt2() { return buildTransformer(gpt2Config()); }
Graph dnnfusion::buildGpt2Batched(int64_t Batch) {
  return buildAtBatch(gpt2Config(), Batch);
}
