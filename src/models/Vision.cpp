//===- models/Vision.cpp - 2D CNN models ------------------------------------------===//
//
// VGG-16, EfficientNet-B0, MobileNetV1-SSD, YOLO-V4, and U-Net at reduced
// channel/spatial scale, preserving each architecture's operator mix and
// connectivity.
//
//===----------------------------------------------------------------------===//

#include "models/ModelZoo.h"

#include "graph/GraphBuilder.h"

using namespace dnnfusion;

namespace {

NodeId convBnRelu(GraphBuilder &B, NodeId X, int64_t C, int64_t K,
                  int64_t Stride, int64_t Pad, int64_t Group = 1) {
  NodeId Conv = B.conv(X, C, {K, K}, {Stride, Stride}, {Pad, Pad}, Group,
                       /*Bias=*/false);
  return B.relu(B.batchNorm(Conv));
}

NodeId convBnLeaky(GraphBuilder &B, NodeId X, int64_t C, int64_t K,
                   int64_t Stride, int64_t Pad) {
  NodeId Conv = B.conv(X, C, {K, K}, {Stride, Stride}, {Pad, Pad}, 1, false);
  return B.op(OpKind::LeakyRelu, {B.batchNorm(Conv)},
              AttrMap().set("alpha", 0.1));
}

NodeId convBnMish(GraphBuilder &B, NodeId X, int64_t C, int64_t K,
                  int64_t Stride, int64_t Pad) {
  NodeId Conv = B.conv(X, C, {K, K}, {Stride, Stride}, {Pad, Pad}, 1, false);
  return B.mish(B.batchNorm(Conv));
}

NodeId convBnSilu(GraphBuilder &B, NodeId X, int64_t C, int64_t K,
                  int64_t Stride, int64_t Pad, int64_t Group = 1) {
  NodeId Conv = B.conv(X, C, {K, K}, {Stride, Stride}, {Pad, Pad}, Group,
                       false);
  return B.silu(B.batchNorm(Conv));
}

} // namespace

//===----------------------------------------------------------------------===//
// VGG-16
//===----------------------------------------------------------------------===//

Graph dnnfusion::buildVgg16Batched(int64_t Batch) {
  GraphBuilder B(201);
  NodeId X = B.input(Shape({Batch, 3, 32, 32}), "image");
  // Convolution stacks (channels scaled by 1/8 from [64..512]).
  const int64_t Stages[5][2] = {{8, 2}, {16, 2}, {32, 3}, {64, 3}, {64, 3}};
  NodeId H = X;
  for (const auto &Stage : Stages) {
    for (int64_t I = 0; I < Stage[1]; ++I)
      H = B.relu(B.conv(H, Stage[0], {3, 3}, {1, 1}, {1, 1}));
    H = B.maxPool(H, {2, 2}, {2, 2});
  }
  // Classifier.
  H = B.op(OpKind::Flatten, {H}, AttrMap().set("axis", int64_t(1)));
  H = B.relu(B.linear(H, 128));
  H = B.relu(B.linear(H, 128));
  H = B.linear(H, 100);
  B.markOutput(B.softmax(H, -1));
  Graph G = B.take();
  G.verify();
  return G;
}

Graph dnnfusion::buildVgg16() { return buildVgg16Batched(1); }

//===----------------------------------------------------------------------===//
// EfficientNet-B0
//===----------------------------------------------------------------------===//

namespace {

/// MBConv block: expand -> depthwise -> squeeze-excite -> project
/// (+ residual when shapes allow).
NodeId mbConv(GraphBuilder &B, NodeId X, int64_t OutC, int64_t Expand,
              int64_t K, int64_t Stride) {
  const Shape &In = B.graph().node(X).OutShape;
  int64_t InC = In.dim(1);
  NodeId H = X;
  int64_t Mid = InC * Expand;
  if (Expand != 1)
    H = convBnSilu(B, H, Mid, 1, 1, 0);
  H = convBnSilu(B, H, Mid, K, Stride, K / 2, /*Group=*/Mid);
  // Squeeze-and-excite.
  NodeId Pooled = B.op(OpKind::GlobalAveragePool, {H});
  int64_t Squeezed = std::max<int64_t>(1, InC / 4);
  NodeId S1 = B.silu(B.conv(Pooled, Squeezed, {1, 1}));
  NodeId S2 = B.sigmoid(B.conv(S1, Mid, {1, 1}));
  H = B.mul(H, S2);
  // Project.
  H = B.batchNorm(B.conv(H, OutC, {1, 1}, {1, 1}, {0, 0}, 1, false));
  if (OutC == InC && Stride == 1)
    H = B.add(H, X);
  return H;
}

} // namespace

Graph dnnfusion::buildEfficientNetB0Batched(int64_t Batch) {
  GraphBuilder B(202);
  NodeId X = B.input(Shape({Batch, 3, 32, 32}), "image");
  NodeId H = convBnSilu(B, X, 8, 3, 2, 1);
  // (expand, channels, repeats, stride, kernel) scaled 1/4 from B0.
  const int64_t Blocks[7][5] = {{1, 4, 1, 1, 3},  {6, 6, 2, 2, 3},
                                {6, 10, 2, 2, 5}, {6, 20, 3, 2, 3},
                                {6, 28, 3, 1, 5}, {6, 48, 4, 2, 5},
                                {6, 80, 1, 1, 3}};
  for (const auto &Cfg : Blocks)
    for (int64_t R = 0; R < Cfg[2]; ++R)
      H = mbConv(B, H, Cfg[1], Cfg[0], Cfg[4], R == 0 ? Cfg[3] : 1);
  H = convBnSilu(B, H, 320, 1, 1, 0);
  H = B.op(OpKind::GlobalAveragePool, {H});
  H = B.op(OpKind::Flatten, {H}, AttrMap().set("axis", int64_t(1)));
  B.markOutput(B.softmax(B.linear(H, 100), -1));
  Graph G = B.take();
  G.verify();
  return G;
}

Graph dnnfusion::buildEfficientNetB0() { return buildEfficientNetB0Batched(1); }

//===----------------------------------------------------------------------===//
// MobileNetV1-SSD
//===----------------------------------------------------------------------===//

namespace {

/// Depthwise-separable unit: dw conv + bn + relu, pw conv + bn + relu.
NodeId dwSeparable(GraphBuilder &B, NodeId X, int64_t OutC, int64_t Stride) {
  int64_t InC = B.graph().node(X).OutShape.dim(1);
  NodeId H = convBnRelu(B, X, InC, 3, Stride, 1, /*Group=*/InC);
  return convBnRelu(B, H, OutC, 1, 1, 0);
}

/// One SSD detection head: loc + conf convs with the standard
/// Transpose/Reshape post-processing.
void ssdHead(GraphBuilder &B, NodeId Feature, int64_t Anchors,
             std::vector<NodeId> &Locs, std::vector<NodeId> &Confs) {
  const int64_t Classes = 10;
  NodeId Loc = B.conv(Feature, Anchors * 4, {3, 3}, {1, 1}, {1, 1});
  NodeId Conf = B.conv(Feature, Anchors * Classes, {3, 3}, {1, 1}, {1, 1});
  NodeId LocT = B.transpose(Loc, {0, 2, 3, 1});
  NodeId ConfT = B.transpose(Conf, {0, 2, 3, 1});
  Locs.push_back(B.reshape(LocT, {1, -1, 4}));
  Confs.push_back(B.reshape(ConfT, {1, -1, Classes}));
}

} // namespace

Graph dnnfusion::buildMobileNetV1Ssd() {
  GraphBuilder B(203);
  NodeId X = B.input(Shape({1, 3, 48, 48}), "image");
  NodeId H = convBnRelu(B, X, 8, 3, 2, 1);
  const int64_t Units[13][2] = {{16, 1}, {32, 2}, {32, 1},  {64, 2}, {64, 1},
                                {128, 2}, {128, 1}, {128, 1}, {128, 1},
                                {128, 1}, {128, 1}, {256, 2}, {256, 1}};
  std::vector<NodeId> Features;
  int UnitIndex = 0;
  for (const auto &U : Units) {
    H = dwSeparable(B, H, U[0], U[1]);
    ++UnitIndex;
    if (UnitIndex == 11 || UnitIndex == 13)
      Features.push_back(H);
  }
  // SSD extra feature layers.
  for (int64_t C : {128, 64, 64, 64}) {
    H = B.relu(B.conv(H, C / 2, {1, 1}));
    H = B.relu(B.conv(H, C, {3, 3}, {2, 2}, {1, 1}));
    Features.push_back(H);
  }
  std::vector<NodeId> Locs, Confs;
  for (NodeId F : Features)
    ssdHead(B, F, /*Anchors=*/6, Locs, Confs);
  NodeId AllLocs = B.concat(Locs, 1);
  NodeId AllConfs = B.concat(Confs, 1);
  B.markOutput(AllLocs);
  B.markOutput(B.softmax(AllConfs, -1));
  Graph G = B.take();
  G.verify();
  return G;
}

//===----------------------------------------------------------------------===//
// YOLO-V4
//===----------------------------------------------------------------------===//

namespace {

/// CSP stage: split into two paths, run residual units on one, concat.
NodeId cspStage(GraphBuilder &B, NodeId X, int64_t C, int Units) {
  NodeId Down = convBnMish(B, X, C, 3, 2, 1);
  NodeId Route = convBnMish(B, Down, C / 2, 1, 1, 0);
  NodeId H = convBnMish(B, Down, C / 2, 1, 1, 0);
  for (int I = 0; I < Units; ++I) {
    NodeId R = convBnMish(B, H, C / 2, 1, 1, 0);
    R = convBnMish(B, R, C / 2, 3, 1, 1);
    H = B.add(H, R);
  }
  H = convBnMish(B, H, C / 2, 1, 1, 0);
  NodeId Cat = B.concat({H, Route}, 1);
  return convBnMish(B, Cat, C, 1, 1, 0);
}

NodeId yoloHead(GraphBuilder &B, NodeId X, int64_t C) {
  NodeId H = convBnLeaky(B, X, C, 3, 1, 1);
  return B.conv(H, 3 * 15, {1, 1}); // 3 anchors x (5 + 10 classes).
}

} // namespace

Graph dnnfusion::buildYoloV4() {
  GraphBuilder B(204);
  NodeId X = B.input(Shape({1, 3, 64, 64}), "image");
  // CSPDarknet53 backbone (channels scaled 1/8).
  NodeId H = convBnMish(B, X, 4, 3, 1, 1);
  H = cspStage(B, H, 8, 1);
  H = cspStage(B, H, 16, 2);
  NodeId C3 = cspStage(B, H, 32, 8);
  NodeId C4 = cspStage(B, C3, 64, 8);
  NodeId C5 = cspStage(B, C4, 128, 4);

  // SPP on the deepest feature map.
  NodeId P = convBnLeaky(B, C5, 64, 1, 1, 0);
  NodeId S1 = B.maxPool(P, {5, 5}, {1, 1}, {2, 2});
  NodeId S2 = B.maxPool(P, {9, 9}, {1, 1}, {4, 4});
  NodeId S3 = B.maxPool(P, {13, 13}, {1, 1}, {6, 6});
  NodeId Spp = convBnLeaky(B, B.concat({S3, S2, S1, P}, 1), 64, 1, 1, 0);

  // PANet: upsample path.
  NodeId Up5 = B.upsample2x(convBnLeaky(B, Spp, 32, 1, 1, 0));
  NodeId L4 = convBnLeaky(B, C4, 32, 1, 1, 0);
  NodeId P4 = convBnLeaky(B, B.concat({L4, Up5}, 1), 32, 1, 1, 0);
  P4 = convBnLeaky(B, P4, 32, 3, 1, 1);
  NodeId Up4 = B.upsample2x(convBnLeaky(B, P4, 16, 1, 1, 0));
  NodeId L3 = convBnLeaky(B, C3, 16, 1, 1, 0);
  NodeId P3 = convBnLeaky(B, B.concat({L3, Up4}, 1), 16, 1, 1, 0);
  P3 = convBnLeaky(B, P3, 16, 3, 1, 1);

  // Downsample path.
  NodeId D4 = convBnLeaky(B, P3, 32, 3, 2, 1);
  NodeId N4 = convBnLeaky(B, B.concat({D4, P4}, 1), 32, 1, 1, 0);
  NodeId D5 = convBnLeaky(B, N4, 64, 3, 2, 1);
  NodeId N5 = convBnLeaky(B, B.concat({D5, Spp}, 1), 64, 1, 1, 0);

  B.markOutput(yoloHead(B, P3, 16));
  B.markOutput(yoloHead(B, N4, 32));
  B.markOutput(yoloHead(B, N5, 64));
  Graph G = B.take();
  G.verify();
  return G;
}

//===----------------------------------------------------------------------===//
// U-Net
//===----------------------------------------------------------------------===//

namespace {

NodeId doubleConv(GraphBuilder &B, NodeId X, int64_t C) {
  // Three conv+bn+relu units per level (mobile exports of U-Net variants
  // carry the extra refinement conv; this also keeps the layer count in
  // the paper's regime).
  NodeId H = convBnRelu(B, X, C, 3, 1, 1);
  H = convBnRelu(B, H, C, 3, 1, 1);
  return convBnRelu(B, H, C, 3, 1, 1);
}

} // namespace

Graph dnnfusion::buildUNetBatched(int64_t Batch) {
  GraphBuilder B(205);
  NodeId X = B.input(Shape({Batch, 3, 48, 48}), "image");
  // Encoder (channels scaled 1/8 from [64..1024]).
  std::vector<NodeId> Skips;
  NodeId H = doubleConv(B, X, 8);
  Skips.push_back(H);
  for (int64_t C : {16, 32, 64}) {
    H = B.maxPool(H, {2, 2}, {2, 2});
    H = doubleConv(B, H, C);
    Skips.push_back(H);
  }
  H = B.maxPool(H, {2, 2}, {2, 2});
  H = doubleConv(B, H, 128);
  // Decoder with transposed convolutions and skip concats.
  for (int Level = 3; Level >= 0; --Level) {
    int64_t C = B.graph().node(Skips[static_cast<size_t>(Level)]).OutShape.dim(1);
    H = B.convTranspose(H, C, 2, 2);
    H = B.concat({Skips[static_cast<size_t>(Level)], H}, 1);
    H = doubleConv(B, H, C);
  }
  NodeId Logits = B.conv(H, 2, {1, 1});
  B.markOutput(B.softmax(Logits, 1));
  Graph G = B.take();
  G.verify();
  return G;
}

Graph dnnfusion::buildUNet() { return buildUNetBatched(1); }
