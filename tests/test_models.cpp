//===- tests/test_models.cpp - model zoo integration tests -------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"
#include "ops/OpSchema.h"

#include <gtest/gtest.h>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

class ZooModel : public ::testing::TestWithParam<int> {};

TEST_P(ZooModel, BuildsVerifiesAndHasSensibleStructure) {
  const ModelZooEntry &E =
      modelZoo()[static_cast<size_t>(GetParam())];
  Graph G = E.Build();
  G.verify();
  EXPECT_GT(G.countLayers(), 0) << E.Info.Name;
  EXPECT_GT(G.countComputeIntensiveLayers(), 0) << E.Info.Name;
  EXPECT_GT(G.totalFlops(), 0) << E.Info.Name;
  EXPECT_FALSE(G.outputs().empty()) << E.Info.Name;
  // Scaled-down builders must stay in the paper's order of magnitude:
  // more than a fifth of its layer count.
  EXPECT_GT(G.countLayers(), E.Info.PaperTotalLayers / 5) << E.Info.Name;
}

INSTANTIATE_TEST_SUITE_P(
    All, ZooModel, ::testing::Range(0, 15),
    [](const ::testing::TestParamInfo<int> &Info) {
      std::string Name =
          modelZoo()[static_cast<size_t>(Info.param)].Info.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(ZooModels, BuildersAreDeterministic) {
  Graph A = buildVgg16();
  Graph B = buildVgg16();
  EXPECT_EQ(A.toString(), B.toString());
}

TEST(ZooModels, TransformerFamilyDepthOrdering) {
  EXPECT_LT(buildTinyBert().countLayers(), buildDistilBert().countLayers());
  EXPECT_LT(buildDistilBert().countLayers(), buildBertBase().countLayers());
  EXPECT_LT(buildBertBase().countLayers(), buildMobileBert().countLayers());
}

TEST(ZooModels, RcnnModelsAreMemoryIntensiveLayerDominated) {
  // The paper's Table 5 point: R-CNN depth comes from MILs, not convs.
  Graph G = buildFasterRcnn();
  int64_t Cil = G.countComputeIntensiveLayers();
  int64_t Total = G.countLayers();
  EXPECT_GT(Total - Cil, 5 * Cil);
}

// End-to-end numerical equivalence for the cheapest model of each family
// (the full sweep lives in the benches; tests keep runtime bounded).
TEST(ZooEndToEnd, Vgg16OptimizedMatchesReference) {
  expectOptimizedMatchesReference(buildVgg16(), 1, CompileOptions(), 5e-3f,
                                  5e-3f);
}

TEST(ZooEndToEnd, TinyBertOptimizedMatchesReference) {
  expectOptimizedMatchesReference(buildTinyBert(), 2, CompileOptions(), 5e-3f,
                                  5e-3f);
}

TEST(ZooEndToEnd, C3dOptimizedMatchesReference) {
  expectOptimizedMatchesReference(buildC3d(), 3, CompileOptions(), 5e-3f,
                                  5e-3f);
}

TEST(ZooEndToEnd, MobileNetSsdOptimizedMatchesReference) {
  expectOptimizedMatchesReference(buildMobileNetV1Ssd(), 4, CompileOptions(),
                                  5e-3f, 5e-3f);
}

TEST(ZooModels, UnknownNameAborts) {
  EXPECT_DEATH(buildModel("NoSuchNet"), "unknown model");
}

} // namespace
