//===- tests/test_api_boundary.cpp - the serving-grade public API boundary --------===//
//
// The recoverable error model end to end, driven exclusively through the
// stable facade (<dnnfusion/dnnfusion.h>): malformed graphs are rejected at
// the compile boundary with an InvalidGraph Status, malformed inference
// requests (wrong arity / shape / dtype / unknown name) are rejected with a
// clean Status before any execution context is leased, the session stays
// fully serviceable afterwards, and SessionMetrics counts it all. No
// user-supplied bad input on these paths may abort the process — every
// test here doubles as a liveness proof, since an abort kills the binary.
//
//===----------------------------------------------------------------------===//

#include <dnnfusion/dnnfusion.h>

#include <gtest/gtest.h>

using namespace dnnfusion;

namespace {

/// conv -> batchnorm -> relu with one named input and one output.
Graph smallModel(uint64_t Seed = 11) {
  GraphBuilder B(Seed);
  NodeId X = B.input(Shape({1, 3, 16, 16}), "image");
  B.markOutput(B.relu(B.batchNorm(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}))));
  return B.take();
}

Tensor imageTensor(float Fill = 0.5f) {
  return Tensor::full(Shape({1, 3, 16, 16}), Fill);
}

//===----------------------------------------------------------------------===//
// Compile boundary: malformed graphs return Status, not abort
//===----------------------------------------------------------------------===//

TEST(CompileBoundary, GraphWithNoOutputsIsRejected) {
  GraphBuilder B(1);
  B.relu(B.input(Shape({4})));
  // markOutput never called.
  Expected<CompiledModel> M = compileModel(B.take());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
  EXPECT_NE(M.status().message().find("no outputs"), std::string::npos)
      << M.status().toString();
}

TEST(CompileBoundary, ShapeInconsistencyIsRejected) {
  GraphBuilder B(2);
  NodeId X = B.input(Shape({4}));
  NodeId R = B.relu(X);
  B.markOutput(R);
  Graph G = B.take();
  // Corrupt the stored shape so it disagrees with inference — the kind of
  // inconsistency a buggy importer could hand the compile boundary.
  G.node(R).OutShape = Shape({5});
  Expected<CompiledModel> M = compileModel(std::move(G));
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
  EXPECT_NE(M.status().message().find("disagrees"), std::string::npos);
}

TEST(CompileBoundary, DuplicateInputNamesAreRejected) {
  GraphBuilder B(3);
  NodeId X = B.input(Shape({4}), "x");
  NodeId Y = B.input(Shape({4}), "x");
  B.markOutput(B.add(X, Y));
  Expected<CompiledModel> M = compileModel(B.take());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
  EXPECT_NE(M.status().message().find("duplicate input name"),
            std::string::npos);
}

TEST(CompileBoundary, GeneratedDefaultInputNamesAvoidExplicitCollisions) {
  // An explicit "input1" followed by an unnamed input (whose default
  // would be "input1" by node id) must still compile: generated names
  // probe past collisions rather than tripping the duplicate check.
  GraphBuilder B(7);
  NodeId A = B.input(Shape({4}), "input1");
  NodeId C = B.input(Shape({4}));
  B.markOutput(B.add(A, C));
  Expected<CompiledModel> M = compileModel(B.take());
  ASSERT_TRUE(M.ok()) << M.status().toString();
  ASSERT_EQ(M->Signature.Inputs.size(), 2u);
  EXPECT_NE(M->Signature.Inputs[0].Name, M->Signature.Inputs[1].Name);
}

TEST(CompileBoundary, NonBroadcastableOperandsAreRejected) {
  // Shape inference itself diagnoses this class (Shape::broadcast and
  // friends abort); the compile boundary must trap it into a Status.
  GraphBuilder B(6);
  NodeId X = B.input(Shape({4}));
  NodeId Y = B.input(Shape({4}));
  B.markOutput(B.add(X, Y));
  Graph G = B.take();
  G.node(X).OutShape = Shape({5}); // No longer broadcasts against {4}.
  Expected<CompiledModel> M = compileModel(std::move(G));
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
  EXPECT_NE(M.status().message().find("fails shape inference"),
            std::string::npos)
      << M.status().toString();
}

TEST(CompileBoundary, CycleIsRejected) {
  GraphBuilder B(4);
  NodeId X = B.input(Shape({4}));
  NodeId A = B.relu(X);
  NodeId C = B.relu(A);
  B.markOutput(C);
  Graph G = B.take();
  G.node(A).Inputs[0] = C; // A <-> C cycle behind the builder's back.
  Expected<CompiledModel> M = compileModel(std::move(G));
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
  EXPECT_NE(M.status().message().find("cycle"), std::string::npos);
}

TEST(CompileBoundary, CompileModelWithPlanValidatesTheGraphToo) {
  GraphBuilder B(5);
  B.relu(B.input(Shape({4})));
  Expected<CompiledModel> M = compileModelWithPlan(B.take(), FusionPlan());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), ErrorCode::InvalidGraph);
}

TEST(CompileBoundary, ValidGraphStillCompiles) {
  Expected<CompiledModel> M = compileModel(smallModel());
  ASSERT_TRUE(M.ok()) << M.status().toString();
  EXPECT_GT(M->kernelLaunches(), 0);
}

//===----------------------------------------------------------------------===//
// ModelSignature
//===----------------------------------------------------------------------===//

TEST(ModelSignature, CarriesNamedShapedDtypedInputsAndOutputs) {
  CompiledModel M = cantFail(compileModel(smallModel()));
  ASSERT_EQ(M.Signature.Inputs.size(), 1u);
  EXPECT_EQ(M.Signature.Inputs[0].Name, "image");
  EXPECT_EQ(M.Signature.Inputs[0].Sh, Shape({1, 3, 16, 16}));
  EXPECT_EQ(M.Signature.Inputs[0].Ty, DType::Float32);
  ASSERT_EQ(M.Signature.Outputs.size(), 1u);
  EXPECT_EQ(M.Signature.Outputs[0].Sh, Shape({1, 4, 16, 16}));
  EXPECT_EQ(M.Signature.inputIndex("image"), 0);
  EXPECT_EQ(M.Signature.inputIndex("nope"), -1);
  EXPECT_NE(M.Signature.toString().find("image: 1x3x16x16 f32"),
            std::string::npos)
      << M.Signature.toString();
}

TEST(ModelSignature, SurvivesRewritingAndMatchesRunConvention) {
  // Graph rewriting (Conv+BN fold) must not change the model interface.
  CompiledModel Full = cantFail(compileModel(smallModel()));
  CompileOptions Off;
  Off.EnableGraphRewriting = false;
  CompiledModel Raw = cantFail(compileModel(smallModel(), Off));
  ASSERT_EQ(Full.Signature.Inputs.size(), Raw.Signature.Inputs.size());
  for (size_t I = 0; I < Full.Signature.Inputs.size(); ++I) {
    EXPECT_EQ(Full.Signature.Inputs[I].Name, Raw.Signature.Inputs[I].Name);
    EXPECT_EQ(Full.Signature.Inputs[I].Sh, Raw.Signature.Inputs[I].Sh);
  }
}

//===----------------------------------------------------------------------===//
// Request validation: reject, survive, keep serving
//===----------------------------------------------------------------------===//

class ApiBoundary : public ::testing::Test {
protected:
  ApiBoundary() : Session(cantFail(compileModel(smallModel()))) {}
  InferenceSession Session;
};

TEST_F(ApiBoundary, WrongArityIsRejectedBeforeLeasingAContext) {
  EXPECT_FALSE(Session.run(std::vector<Tensor>{}).ok());
  EXPECT_FALSE(
      Session.run(std::vector<Tensor>{imageTensor(), imageTensor()}).ok());
  Expected<std::vector<Tensor>> R = Session.run(std::vector<Tensor>{});
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(R.status().message().find("inputs"), std::string::npos);
  // Validation happens before any context is created or leased.
  EXPECT_EQ(Session.contextsCreated(), 0u);
}

TEST_F(ApiBoundary, WrongShapeIsRejectedWithInputName) {
  Expected<std::vector<Tensor>> R =
      Session.run({Tensor::zeros(Shape({1, 3, 8, 8}))});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(R.status().message().find("image"), std::string::npos)
      << R.status().toString();
  EXPECT_NE(R.status().message().find("1x3x8x8"), std::string::npos);
}

TEST_F(ApiBoundary, WrongDtypeIsRejected) {
  Expected<std::vector<Tensor>> R =
      Session.run({Tensor(Shape({1, 3, 16, 16}), DType::Int32)});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(R.status().message().find("dtype"), std::string::npos);
}

TEST_F(ApiBoundary, NullTensorIsRejected) {
  Expected<std::vector<Tensor>> R = Session.run({Tensor()});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
}

TEST_F(ApiBoundary, UnknownNameIsRejected) {
  Expected<std::vector<Tensor>> R =
      Session.run({{"not_an_input", imageTensor()}});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::NotFound);
  EXPECT_NE(R.status().message().find("not_an_input"), std::string::npos);
}

TEST_F(ApiBoundary, MissingNamedInputIsRejected) {
  Expected<std::vector<Tensor>> R =
      Session.run(std::map<std::string, Tensor>{});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(R.status().message().find("image"), std::string::npos);
}

TEST_F(ApiBoundary, NamedRunMatchesPositionalRun) {
  std::vector<Tensor> Positional = cantFail(Session.run({imageTensor()}));
  std::vector<Tensor> Named =
      cantFail(Session.run({{"image", imageTensor()}}));
  ASSERT_EQ(Positional.size(), Named.size());
  for (size_t I = 0; I < Positional.size(); ++I)
    for (int64_t E = 0; E < Positional[I].numElements(); ++E)
      ASSERT_EQ(Positional[I].at(E), Named[I].at(E));
}

TEST_F(ApiBoundary, SessionServesValidRequestsAfterAStormOfBadOnes) {
  std::vector<Tensor> Golden = cantFail(Session.run({imageTensor()}));
  unsigned ContextsAfterFirstRun = Session.contextsCreated();
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(Session.run(std::vector<Tensor>{}).ok());
    EXPECT_FALSE(Session.run({Tensor::zeros(Shape({2, 2}))}).ok());
    EXPECT_FALSE(Session.run({{"bogus", imageTensor()}}).ok());
  }
  // Pool state intact: rejections never leased (or leaked) a context.
  EXPECT_EQ(Session.contextsCreated(), ContextsAfterFirstRun);
  std::vector<Tensor> After = cantFail(Session.run({imageTensor()}));
  ASSERT_EQ(After.size(), Golden.size());
  for (size_t I = 0; I < After.size(); ++I)
    for (int64_t E = 0; E < After[I].numElements(); ++E)
      ASSERT_EQ(After[I].at(E), Golden[I].at(E));
}

TEST_F(ApiBoundary, ValidateRequestMirrorsRunAcceptance) {
  EXPECT_TRUE(Session.validateRequest({imageTensor()}).ok());
  EXPECT_FALSE(Session.validateRequest({}).ok());
  EXPECT_FALSE(
      Session.validateRequest({Tensor::zeros(Shape({1, 3, 8, 8}))}).ok());
  // validateRequest alone never counts as a rejected request.
  EXPECT_EQ(Session.metrics().RequestsRejected, 0u);
}

//===----------------------------------------------------------------------===//
// SessionMetrics
//===----------------------------------------------------------------------===//

TEST_F(ApiBoundary, MetricsCountServedRejectedAndWallTime) {
  SessionMetrics Before = Session.metrics();
  EXPECT_EQ(Before.RequestsServed, 0u);
  EXPECT_EQ(Before.RequestsRejected, 0u);
  EXPECT_EQ(Before.CumulativeWallMs, 0.0);

  cantFail(Session.run({imageTensor()}));
  cantFail(Session.run({{"image", imageTensor()}}));
  EXPECT_FALSE(Session.run(std::vector<Tensor>{}).ok());
  EXPECT_FALSE(Session.run({{"bogus", imageTensor()}}).ok());
  for (int I = 0; I < 2; ++I) {
    Expected<std::vector<Tensor>> Out = Session.run({imageTensor()});
    EXPECT_TRUE(Out.ok()) << Out.status().toString();
  }

  SessionMetrics After = Session.metrics();
  EXPECT_EQ(After.RequestsServed, 4u);
  EXPECT_EQ(After.RequestsRejected, 2u);
  EXPECT_EQ(After.RequestsFailed, 0u);
  EXPECT_GT(After.CumulativeWallMs, 0.0);
}

//===----------------------------------------------------------------------===//
// Status / Expected plumbing visible through the facade
//===----------------------------------------------------------------------===//

TEST(StatusThroughFacade, ErrorsRenderCodeAndMessage) {
  Status S = Status::errorf(ErrorCode::InvalidArgument, "bad %s #%d", "input",
                            3);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.toString(), "invalid_argument: bad input #3");
}

} // namespace
