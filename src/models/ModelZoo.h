//===- models/ModelZoo.h - The paper's 15 evaluated models ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic builders for the 15 DNNs of paper Table 5. Each builder
/// reproduces the model's architecture — operator mix, connectivity
/// patterns, normalization/activation decompositions as mobile exporters
/// emit them — at reduced tensor dimensions (random weights; accuracy is
/// out of scope exactly as in paper §5.1). Fusion-rate experiments depend
/// only on the graph structure; latency experiments on the relative
/// operator mix. Layer counts may differ from the paper's, which each
/// entry keeps in ModelInfo::PaperTotalLayers; a builder keeps more than a
/// fifth of that count.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_MODELS_MODELZOO_H
#define DNNFUSION_MODELS_MODELZOO_H

#include "graph/Graph.h"

#include <functional>
#include <string>
#include <vector>

namespace dnnfusion {

/// Table 5 metadata for one model.
struct ModelInfo {
  std::string Name;
  std::string Type; ///< "2D CNN", "3D CNN", "R-CNN", "Transformer".
  std::string Task;
  int64_t PaperTotalLayers; ///< Layer count reported in paper Table 5.
};

/// One zoo entry.
struct ModelZooEntry {
  ModelInfo Info;
  std::function<Graph()> Build;
  /// Builds the same model with its leading (batch) dimension set to the
  /// argument, weights identical to Build() by construction (same seed,
  /// same weight-creation order). Null for models whose export pattern
  /// hard-codes batch 1 (detection heads, R-CNN proposals). This is the
  /// GraphFactory the serving layer's DynamicBatcher consumes.
  std::function<Graph(int64_t)> BuildBatched;
};

/// All 15 models in Table 5 order.
const std::vector<ModelZooEntry> &modelZoo();

/// Builds a model by its Table 5 name; aborts on unknown names.
Graph buildModel(const std::string &Name);

/// Names of the zoo models with a batch-parameterized builder, Table 5
/// order.
std::vector<std::string> batchedModelNames();

/// Builds \p Name at leading-dim batch \p Batch (>= 1); aborts on unknown
/// or non-batchable names (check batchedModelNames first).
Graph buildModelBatched(const std::string &Name, int64_t Batch);

// Individual builders (deterministic; weights derive from the seed).
// The *Batched variants build the identical model at leading-dim batch B.
Graph buildEfficientNetB0();
Graph buildEfficientNetB0Batched(int64_t Batch);
Graph buildVgg16();
Graph buildVgg16Batched(int64_t Batch);
Graph buildMobileNetV1Ssd();
Graph buildYoloV4();
Graph buildC3d();
Graph buildS3d();
Graph buildUNet();
Graph buildUNetBatched(int64_t Batch);
Graph buildFasterRcnn();
Graph buildMaskRcnn();
Graph buildTinyBert();
Graph buildTinyBertBatched(int64_t Batch);
Graph buildDistilBert();
Graph buildDistilBertBatched(int64_t Batch);
Graph buildAlbert();
Graph buildAlbertBatched(int64_t Batch);
Graph buildBertBase();
Graph buildBertBaseBatched(int64_t Batch);
Graph buildMobileBert();
Graph buildMobileBertBatched(int64_t Batch);
Graph buildGpt2();
Graph buildGpt2Batched(int64_t Batch);

} // namespace dnnfusion

#endif // DNNFUSION_MODELS_MODELZOO_H
