//===- graph/Graph.cpp - Computational graph IR -------------------------------===//

#include "graph/Graph.h"

#include "ops/OpSchema.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <functional>
#include <queue>

using namespace dnnfusion;

NodeId Graph::addInput(Shape S, std::string Name) {
  Node N;
  N.Id = static_cast<NodeId>(Nodes.size());
  N.Kind = OpKind::Input;
  N.OutShape = std::move(S);
  if (Name.empty()) {
    // Generated defaults must not collide with explicit names (input
    // names are the model's calling convention; validate() rejects
    // duplicates), so probe until free.
    int Suffix = N.Id;
    do {
      Name = formatString("input%d", Suffix++);
    } while (std::any_of(Nodes.begin(), Nodes.end(), [&](const Node &Other) {
      return Other.Kind == OpKind::Input && Other.Name == Name;
    }));
  }
  N.Name = std::move(Name);
  Nodes.push_back(std::move(N));
  return Nodes.back().Id;
}

NodeId Graph::addConstant(Tensor Value, std::string Name) {
  Node N;
  N.Id = static_cast<NodeId>(Nodes.size());
  N.Kind = OpKind::Constant;
  N.OutShape = Value.shape();
  N.ConstValue = std::move(Value);
  N.Name = Name.empty() ? formatString("const%d", N.Id) : std::move(Name);
  Nodes.push_back(std::move(N));
  return Nodes.back().Id;
}

NodeId Graph::addOp(OpKind Kind, std::vector<NodeId> Inputs, AttrMap Attrs,
                    std::string Name) {
  DNNF_CHECK(Kind != OpKind::Input && Kind != OpKind::Constant,
             "use addInput/addConstant for %s", opKindName(Kind));
  std::vector<Shape> InShapes;
  InShapes.reserve(Inputs.size());
  for (NodeId In : Inputs) {
    DNNF_CHECK(In >= 0 && In < numNodes(), "input id %d out of range", In);
    DNNF_CHECK(!Nodes[static_cast<size_t>(In)].Dead, "input id %d is dead",
               In);
    InShapes.push_back(Nodes[static_cast<size_t>(In)].OutShape);
  }
  Node N;
  N.Id = static_cast<NodeId>(Nodes.size());
  N.Kind = Kind;
  N.Attrs = std::move(Attrs);
  N.Inputs = std::move(Inputs);
  N.OutShape = inferShape(Kind, N.Attrs, InShapes);
  N.Name = Name.empty() ? formatString("%s%d", opKindName(Kind), N.Id)
                        : std::move(Name);
  Nodes.push_back(std::move(N));
  return Nodes.back().Id;
}

void Graph::markOutput(NodeId Id) {
  DNNF_CHECK(Id >= 0 && Id < numNodes(), "output id %d out of range", Id);
  if (std::find(OutputIds.begin(), OutputIds.end(), Id) == OutputIds.end())
    OutputIds.push_back(Id);
}

const Node &Graph::node(NodeId Id) const {
  DNNF_CHECK(Id >= 0 && Id < numNodes(), "node id %d out of range", Id);
  return Nodes[static_cast<size_t>(Id)];
}

Node &Graph::node(NodeId Id) {
  DNNF_CHECK(Id >= 0 && Id < numNodes(), "node id %d out of range", Id);
  return Nodes[static_cast<size_t>(Id)];
}

std::vector<NodeId> Graph::topologicalOrder() const {
  // Kahn's algorithm over live nodes, popping the smallest ready id from a
  // min-heap.
  std::vector<int> PendingInputs(Nodes.size(), 0);
  std::vector<std::vector<NodeId>> Consumers = computeConsumers();
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
      Ready;
  std::vector<NodeId> Order;
  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    int Live = 0;
    for (NodeId In : N.Inputs)
      if (!Nodes[static_cast<size_t>(In)].Dead)
        ++Live;
    PendingInputs[static_cast<size_t>(N.Id)] = Live;
    if (Live == 0)
      Ready.push(N.Id);
  }
  while (!Ready.empty()) {
    NodeId Id = Ready.top();
    Ready.pop();
    Order.push_back(Id);
    for (NodeId User : Consumers[static_cast<size_t>(Id)]) {
      // A node may consume the same value twice; decrement once per edge.
      const Node &U = Nodes[static_cast<size_t>(User)];
      int Edges = static_cast<int>(
          std::count(U.Inputs.begin(), U.Inputs.end(), Id));
      int &Pending = PendingInputs[static_cast<size_t>(User)];
      Pending -= Edges;
      if (Pending == 0)
        Ready.push(User);
    }
  }
  return Order;
}

std::vector<std::vector<NodeId>> Graph::computeConsumers() const {
  std::vector<std::vector<NodeId>> Consumers(Nodes.size());
  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    for (NodeId In : N.Inputs) {
      auto &List = Consumers[static_cast<size_t>(In)];
      if (List.empty() || List.back() != N.Id)
        List.push_back(N.Id);
    }
  }
  return Consumers;
}

void Graph::replaceAllUses(NodeId Old, NodeId New) {
  std::vector<NodeId> Users;
  for (const Node &N : Nodes)
    if (!N.Dead &&
        std::find(N.Inputs.begin(), N.Inputs.end(), Old) != N.Inputs.end())
      Users.push_back(N.Id);
  replaceUses(Old, New, Users);
}

void Graph::replaceUses(NodeId Old, NodeId New,
                        const std::vector<NodeId> &Users) {
  DNNF_CHECK(node(Old).OutShape == node(New).OutShape,
             "replaceAllUses shape mismatch: %s vs %s",
             node(Old).OutShape.toString().c_str(),
             node(New).OutShape.toString().c_str());
  for (NodeId User : Users)
    for (NodeId &In : node(User).Inputs)
      if (In == Old)
        In = New;
  for (NodeId &Out : OutputIds)
    if (Out == Old)
      Out = New;
}

void Graph::eraseDeadNodes() {
  std::vector<bool> Reachable(Nodes.size(), false);
  std::vector<NodeId> Stack(OutputIds.begin(), OutputIds.end());
  // Inputs are part of the model interface: they stay alive even when a
  // rewrite makes them unused, so calling conventions never change.
  for (const Node &N : Nodes)
    if (!N.Dead && N.Kind == OpKind::Input)
      Stack.push_back(N.Id);
  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    if (Reachable[static_cast<size_t>(Id)])
      continue;
    Reachable[static_cast<size_t>(Id)] = true;
    for (NodeId In : Nodes[static_cast<size_t>(Id)].Inputs)
      Stack.push_back(In);
  }
  for (Node &N : Nodes)
    if (!Reachable[static_cast<size_t>(N.Id)])
      N.Dead = true;
}

Expected<Graph> Graph::fromParts(std::vector<Node> Nodes,
                                 std::vector<NodeId> Outputs) {
  Graph G;
  G.Nodes = std::move(Nodes);
  for (size_t I = 0; I < G.Nodes.size(); ++I)
    G.Nodes[I].Id = static_cast<NodeId>(I);
  for (NodeId Out : Outputs)
    if (std::find(G.OutputIds.begin(), G.OutputIds.end(), Out) ==
        G.OutputIds.end())
      G.OutputIds.push_back(Out);
  // validate() dereferences output ids via node() (a DNNF_CHECK) only
  // after range-checking them itself, and traps shape-inference
  // diagnostics internally — so untrusted parts cannot abort here.
  for (NodeId Out : G.OutputIds)
    if (Out < 0 || Out >= G.numNodes())
      return Status::errorf(ErrorCode::InvalidGraph,
                            "graph output %d out of range", Out);
  // Input references must be range-valid before validate() walks
  // consumers/topological order over them.
  for (const Node &N : G.Nodes) {
    if (N.Dead)
      continue;
    for (NodeId In : N.Inputs)
      if (In < 0 || In >= G.numNodes())
        return Status::errorf(ErrorCode::InvalidGraph,
                              "node '%s' references out-of-range input %d",
                              N.Name.c_str(), In);
  }
  if (Status S = G.validate(); !S.ok())
    return S;
  return G;
}

Status Graph::validate() const {
  if (OutputIds.empty())
    return Status::error(ErrorCode::InvalidGraph,
                         "graph has no outputs (markOutput was never called)");
  std::vector<std::string> InputNames;
  for (const Node &N : Nodes) {
    if (N.Dead)
      continue;
    if (N.Kind == OpKind::Input || N.Kind == OpKind::Constant) {
      if (!N.Inputs.empty())
        return Status::errorf(ErrorCode::InvalidGraph,
                              "%s node '%s' must have no inputs",
                              opKindName(N.Kind), N.Name.c_str());
      if (N.Kind == OpKind::Constant &&
          (N.ConstValue.isNull() || N.ConstValue.shape() != N.OutShape))
        return Status::errorf(
            ErrorCode::InvalidGraph,
            "constant node '%s' payload is %s but the node shape is %s",
            N.Name.c_str(),
            N.ConstValue.isNull() ? "missing"
                                  : N.ConstValue.shape().toString().c_str(),
            N.OutShape.toString().c_str());
      if (N.Kind == OpKind::Input) {
        if (std::find(InputNames.begin(), InputNames.end(), N.Name) !=
            InputNames.end())
          return Status::errorf(
              ErrorCode::InvalidGraph,
              "duplicate input name '%s' (input names form the model's "
              "calling convention and must be unique)",
              N.Name.c_str());
        InputNames.push_back(N.Name);
      }
      continue;
    }
    Arity A = opArity(N.Kind);
    if (static_cast<int>(N.Inputs.size()) < A.Min ||
        (A.Max >= 0 && static_cast<int>(N.Inputs.size()) > A.Max))
      return Status::errorf(ErrorCode::InvalidGraph,
                            "node '%s' has invalid arity %zu", N.Name.c_str(),
                            N.Inputs.size());
    for (NodeId In : N.Inputs)
      if (In < 0 || In >= numNodes() || Nodes[static_cast<size_t>(In)].Dead)
        return Status::errorf(ErrorCode::InvalidGraph,
                              "node '%s' references dead or invalid input %d",
                              N.Name.c_str(), In);
    // Shape inference itself diagnoses through DNNF_CHECK (broadcast
    // incompatibility, bad attributes, rank mismatches); trap those so a
    // corrupted graph reaching the compile boundary is rejected, not
    // fatal. inferShape is pure computation, so throwing out is safe.
    Shape Inferred;
    try {
      ScopedFatalErrorTrap Trap;
      Inferred = inferShape(N.Kind, N.Attrs, inputShapes(N.Id));
    } catch (const detail::TrappedFatalError &E) {
      return Status::errorf(ErrorCode::InvalidGraph,
                            "node '%s' fails shape inference: %s",
                            N.Name.c_str(), E.Message.c_str());
    }
    if (Inferred != N.OutShape)
      return Status::errorf(
          ErrorCode::InvalidGraph,
          "node '%s' stored shape %s disagrees with inference %s",
          N.Name.c_str(), N.OutShape.toString().c_str(),
          Inferred.toString().c_str());
  }
  // Acyclicity: the topological order must cover every live node.
  size_t Live = 0;
  for (const Node &N : Nodes)
    Live += N.Dead ? 0 : 1;
  if (topologicalOrder().size() != Live)
    return Status::error(ErrorCode::InvalidGraph, "graph contains a cycle");
  for (NodeId Out : OutputIds) {
    if (Out < 0 || Out >= numNodes())
      return Status::errorf(ErrorCode::InvalidGraph,
                            "graph output %d out of range", Out);
    if (node(Out).Dead)
      return Status::errorf(ErrorCode::InvalidGraph, "graph output %d is dead",
                            Out);
  }
  return Status();
}

void Graph::verify() const {
  Status S = validate();
  DNNF_CHECK(S.ok(), "%s", S.message().c_str());
}

std::string Graph::toString() const {
  std::string Out;
  for (NodeId Id : topologicalOrder()) {
    const Node &N = node(Id);
    Out += formatString("%%%d = %s(", Id, opKindName(N.Kind));
    for (size_t I = 0; I < N.Inputs.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += formatString("%%%d", N.Inputs[I]);
    }
    Out += ") : " + N.OutShape.toString();
    std::string Sig = N.Attrs.signature();
    if (!Sig.empty())
      Out += " {" + Sig + "}";
    if (std::find(OutputIds.begin(), OutputIds.end(), Id) != OutputIds.end())
      Out += "  // output";
    Out += '\n';
  }
  return Out;
}

int64_t Graph::countLayers() const {
  int64_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead && N.Kind != OpKind::Input && N.Kind != OpKind::Constant)
      ++Count;
  return Count;
}

int64_t Graph::countComputeIntensiveLayers() const {
  int64_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead && isComputeIntensive(N.Kind))
      ++Count;
  return Count;
}

int64_t Graph::intermediateBytes() const {
  std::vector<std::vector<NodeId>> Consumers = computeConsumers();
  int64_t Bytes = 0;
  for (const Node &N : Nodes) {
    if (N.Dead || N.Kind == OpKind::Input || N.Kind == OpKind::Constant)
      continue;
    if (!Consumers[static_cast<size_t>(N.Id)].empty())
      Bytes += N.outBytes();
  }
  return Bytes;
}

int64_t Graph::totalFlops() const {
  int64_t Flops = 0;
  for (const Node &N : Nodes) {
    if (N.Dead || N.Kind == OpKind::Input || N.Kind == OpKind::Constant)
      continue;
    Flops += flopCount(N.Kind, N.Attrs, inputShapes(N.Id), N.OutShape);
  }
  return Flops;
}

std::vector<Shape> Graph::inputShapes(NodeId Id) const {
  const Node &N = node(Id);
  std::vector<Shape> Shapes;
  Shapes.reserve(N.Inputs.size());
  for (NodeId In : N.Inputs)
    Shapes.push_back(node(In).OutShape);
  return Shapes;
}
