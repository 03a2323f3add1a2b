//===- serialize/GraphSerializer.cpp - Graph persistence ------------------------===//

#include "serialize/GraphSerializer.h"

#include "ops/OpKind.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace dnnfusion;

namespace {

/// Node flag bits (binary form).
constexpr uint8_t FlagDead = 1;

/// Attribute payload tags (binary form; also the variant index order of
/// AttrValue).
constexpr uint8_t AttrInt = 0;
constexpr uint8_t AttrFloat = 1;
constexpr uint8_t AttrIntList = 2;
constexpr uint8_t AttrString = 3;

/// Caps a decoded shape at 2^34 elements (64 GiB of floats): anything
/// larger in a persisted artifact is corruption, not a model.
constexpr int64_t MaxDecodedElements = int64_t(1) << 34;
constexpr int MaxDecodedRank = 32;

/// graphEncodingReserve's allowance for one node record besides its
/// constant payload (name, inputs, shape, attributes).
constexpr size_t NodeRecordAllowance = 128;

void writeShape(ByteWriter &W, const Shape &S) {
  W.u8(static_cast<uint8_t>(S.rank()));
  for (int64_t D : S.dims())
    W.i64(D);
}

Shape readShape(ByteReader &R) {
  int Rank = R.u8();
  if (R.ok() && Rank > MaxDecodedRank) {
    R.fail(formatString("shape rank %d exceeds the cap of %d", Rank,
                        MaxDecodedRank));
    return Shape();
  }
  std::vector<int64_t> Dims;
  int64_t Elements = 1;
  for (int I = 0; I < Rank && R.ok(); ++I) {
    int64_t D = R.i64();
    if (D < 0 || (D > 0 && Elements > MaxDecodedElements / D)) {
      R.fail(formatString("implausible shape dimension %lld",
                          static_cast<long long>(D)));
      return Shape();
    }
    Elements *= D;
    Dims.push_back(D);
  }
  return Shape(std::move(Dims));
}

void writeAttrs(ByteWriter &W, const AttrMap &Attrs) {
  const auto &Entries = Attrs.entries();
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const auto &[Name, Value] : Entries) {
    W.str(Name);
    if (const int64_t *I = std::get_if<int64_t>(&Value)) {
      W.u8(AttrInt);
      W.i64(*I);
    } else if (const double *F = std::get_if<double>(&Value)) {
      W.u8(AttrFloat);
      W.f64(*F);
    } else if (const auto *L = std::get_if<std::vector<int64_t>>(&Value)) {
      W.u8(AttrIntList);
      W.u32(static_cast<uint32_t>(L->size()));
      for (int64_t V : *L)
        W.i64(V);
    } else {
      W.u8(AttrString);
      W.str(std::get<std::string>(Value));
    }
  }
}

AttrMap readAttrs(ByteReader &R) {
  AttrMap Attrs;
  uint32_t Count = R.count(/*MinBytesPerElement=*/6);
  for (uint32_t I = 0; I < Count && R.ok(); ++I) {
    std::string Name = R.str();
    uint8_t Tag = R.u8();
    switch (Tag) {
    case AttrInt:
      Attrs.set(Name, R.i64());
      break;
    case AttrFloat:
      Attrs.set(Name, R.f64());
      break;
    case AttrIntList: {
      uint32_t N = R.count(/*MinBytesPerElement=*/8);
      std::vector<int64_t> L;
      L.reserve(N);
      for (uint32_t J = 0; J < N && R.ok(); ++J)
        L.push_back(R.i64());
      Attrs.set(Name, std::move(L));
      break;
    }
    case AttrString:
      Attrs.set(Name, R.str());
      break;
    default:
      R.fail(formatString("unknown attribute tag %d", Tag));
      break;
    }
  }
  return Attrs;
}

} // namespace

void dnnfusion::serializeGraph(const Graph &G, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(G.numNodes()));
  W.u32(static_cast<uint32_t>(G.outputs().size()));
  for (NodeId Out : G.outputs())
    W.i32(Out);
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    // Dead slots persist as tombstones so live node ids keep their value
    // across the round trip (plans reference nodes by id).
    if (N.Dead) {
      W.u8(FlagDead);
      continue;
    }
    W.u8(0);
    W.u16(static_cast<uint16_t>(N.Kind));
    W.str(N.Name);
    W.u32(static_cast<uint32_t>(N.Inputs.size()));
    for (NodeId In : N.Inputs)
      W.i32(In);
    writeShape(W, N.OutShape);
    writeAttrs(W, N.Attrs);
    if (N.Kind == OpKind::Constant) {
      W.u8(static_cast<uint8_t>(N.ConstValue.dtype()));
      W.u64(static_cast<uint64_t>(N.ConstValue.numElements()));
      W.raw(N.ConstValue.data(), N.ConstValue.byteSize());
    }
  }
}

size_t dnnfusion::graphEncodingReserve(const Graph &G) {
  size_t Bytes = 8 + 4 * G.outputs().size();
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    Bytes += NodeRecordAllowance;
    if (!N.Dead && N.Kind == OpKind::Constant)
      Bytes += N.ConstValue.byteSize();
  }
  return Bytes;
}

Expected<Graph> dnnfusion::deserializeGraph(ByteReader &R) {
  uint32_t NumNodes = R.count(/*MinBytesPerElement=*/1);
  uint32_t NumOutputs = R.count(/*MinBytesPerElement=*/4);
  std::vector<NodeId> Outputs;
  for (uint32_t I = 0; I < NumOutputs && R.ok(); ++I)
    Outputs.push_back(R.i32());
  std::vector<Node> Nodes;
  Nodes.reserve(R.ok() ? NumNodes : 0);
  for (uint32_t I = 0; I < NumNodes && R.ok(); ++I) {
    Node N;
    uint8_t Flags = R.u8();
    if (Flags & FlagDead) {
      N.Dead = true;
      Nodes.push_back(std::move(N));
      continue;
    }
    uint16_t Kind = R.u16();
    if (R.ok() && Kind >= static_cast<uint16_t>(NumOpKinds)) {
      R.fail(formatString("unknown operator kind %d", Kind));
      break;
    }
    N.Kind = static_cast<OpKind>(Kind);
    N.Name = R.str();
    uint32_t NumInputs = R.count(/*MinBytesPerElement=*/4);
    for (uint32_t J = 0; J < NumInputs && R.ok(); ++J)
      N.Inputs.push_back(R.i32());
    N.OutShape = readShape(R);
    N.Attrs = readAttrs(R);
    if (N.Kind == OpKind::Constant && R.ok()) {
      uint8_t Ty = R.u8();
      if (R.ok() && Ty > static_cast<uint8_t>(DType::Int32)) {
        R.fail(formatString("unknown dtype %d", Ty));
        break;
      }
      uint64_t Elements = R.u64();
      if (R.ok() &&
          (Elements != static_cast<uint64_t>(N.OutShape.numElements()) ||
           Elements * sizeof(float) > R.remaining())) {
        R.fail(formatString(
            "constant payload of %llu elements does not match shape %s",
            static_cast<unsigned long long>(Elements),
            N.OutShape.toString().c_str()));
        break;
      }
      if (R.ok()) {
        Tensor Value(N.OutShape, static_cast<DType>(Ty));
        R.raw(Value.data(), Value.byteSize());
        N.ConstValue = std::move(Value);
      }
    }
    Nodes.push_back(std::move(N));
  }
  if (!R.ok())
    return R.status();
  return Graph::fromParts(std::move(Nodes), std::move(Outputs));
}

Expected<Graph> dnnfusion::deserializeGraph(const std::string &Bytes) {
  ByteReader R(Bytes);
  Expected<Graph> G = deserializeGraph(R);
  if (G.ok() && !R.atEnd())
    return Status::errorf(ErrorCode::DataLoss,
                          "%zu trailing bytes after the graph encoding",
                          R.remaining());
  return G;
}

//===----------------------------------------------------------------------===//
// Text form
//===----------------------------------------------------------------------===//

namespace {

std::string escapeText(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string shapeText(const Shape &S) {
  if (S.rank() == 0)
    return "scalar";
  std::vector<std::string> Dims;
  for (int64_t D : S.dims())
    Dims.push_back(formatString("%lld", static_cast<long long>(D)));
  return joinStrings(Dims, "x");
}

std::string attrValueText(const AttrValue &Value) {
  if (const int64_t *I = std::get_if<int64_t>(&Value))
    return formatString("%lld", static_cast<long long>(*I));
  if (const double *F = std::get_if<double>(&Value))
    return formatString("f:%a", *F);
  if (const auto *L = std::get_if<std::vector<int64_t>>(&Value)) {
    std::vector<std::string> Parts;
    for (int64_t V : *L)
      Parts.push_back(formatString("%lld", static_cast<long long>(V)));
    return "[" + joinStrings(Parts, ",") + "]";
  }
  return "\"" + escapeText(std::get<std::string>(Value)) + "\"";
}

/// Cursor over one line of the text form. Parse failures latch a message;
/// the caller turns it into a Status with the line number.
struct LineParser {
  const std::string &S;
  size_t P = 0;
  std::string Err;

  explicit LineParser(const std::string &S) : S(S) {}

  bool failed() const { return !Err.empty(); }
  void fail(const std::string &Why) {
    if (Err.empty())
      Err = Why + formatString(" (column %zu)", P + 1);
  }
  void ws() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\t'))
      ++P;
  }
  bool atEnd() {
    ws();
    return P >= S.size();
  }
  /// Consumes \p Word (and surrounding whitespace) or fails.
  void expect(const std::string &Word) {
    ws();
    if (S.compare(P, Word.size(), Word) == 0) {
      P += Word.size();
      return;
    }
    fail("expected '" + Word + "'");
  }
  bool peekIs(char C) {
    ws();
    return P < S.size() && S[P] == C;
  }
  bool tryEat(char C) {
    ws();
    if (P < S.size() && S[P] == C) {
      ++P;
      return true;
    }
    return false;
  }
  /// An identifier-ish word: [A-Za-z0-9_-]+.
  std::string word() {
    ws();
    size_t Start = P;
    while (P < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[P])) || S[P] == '_' ||
            S[P] == '-'))
      ++P;
    if (P == Start)
      fail("expected a word");
    return S.substr(Start, P - Start);
  }
  int64_t integer() {
    ws();
    const char *Begin = S.c_str() + P;
    char *End = nullptr;
    errno = 0;
    long long V = std::strtoll(Begin, &End, 10);
    if (End == Begin || errno == ERANGE) {
      fail("expected an integer");
      return 0;
    }
    P += static_cast<size_t>(End - Begin);
    return V;
  }
  /// A %<id> node reference. Range-checked before the narrowing cast so
  /// "%4294967297" fails instead of silently aliasing node %1.
  NodeId nodeRef() {
    ws();
    if (!tryEat('%')) {
      fail("expected a %node reference");
      return InvalidNodeId;
    }
    int64_t V = integer();
    if (V < 0 || V > (1 << 24)) {
      fail("node reference out of range");
      return InvalidNodeId;
    }
    return static_cast<NodeId>(V);
  }
  /// A float literal (hex-float, decimal, inf, nan).
  float floatValue() {
    ws();
    const char *Begin = S.c_str() + P;
    char *End = nullptr;
    float V = std::strtof(Begin, &End);
    if (End == Begin) {
      fail("expected a float literal");
      return 0.0f;
    }
    P += static_cast<size_t>(End - Begin);
    return V;
  }
  double doubleValue() {
    ws();
    const char *Begin = S.c_str() + P;
    char *End = nullptr;
    double V = std::strtod(Begin, &End);
    if (End == Begin) {
      fail("expected a float literal");
      return 0.0;
    }
    P += static_cast<size_t>(End - Begin);
    return V;
  }
  /// A "quoted string" with escapes.
  std::string quoted() {
    ws();
    if (!tryEat('"')) {
      fail("expected a quoted string");
      return std::string();
    }
    std::string Out;
    while (P < S.size() && S[P] != '"') {
      char C = S[P++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= S.size())
        break;
      char E = S[P++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      default:
        Out += E;
      }
    }
    if (P >= S.size() || S[P] != '"') {
      fail("unterminated string");
      return Out;
    }
    ++P;
    return Out;
  }
  Shape shape() {
    ws();
    if (S.compare(P, 6, "scalar") == 0) {
      P += 6;
      return Shape();
    }
    std::vector<int64_t> Dims;
    Dims.push_back(integer());
    while (!failed() && P < S.size() && S[P] == 'x') {
      ++P;
      Dims.push_back(integer());
    }
    if (failed())
      return Shape();
    // Same plausibility cap as the binary reader's readShape, with the
    // same overflow-safe product: "2147483648x4294967296" must fail here,
    // not overflow numElements() past the cap and abort in a Tensor
    // allocation downstream.
    int64_t Elements = 1;
    for (int64_t D : Dims) {
      if (D < 0 || (D > 0 && Elements > MaxDecodedElements / D)) {
        fail("implausible shape dimension");
        return Shape();
      }
      Elements *= D;
    }
    return Shape(std::move(Dims));
  }
};

OpKind opKindFromName(const std::string &Name, bool &Found) {
  for (int I = 0; I < NumOpKinds; ++I)
    if (Name == opKindName(opKindFromIndex(I))) {
      Found = true;
      return opKindFromIndex(I);
    }
  Found = false;
  return OpKind::Identity;
}

} // namespace

std::string dnnfusion::graphToText(const Graph &G) {
  std::string Out = "dnnfusion-graph-text 1\n";
  Out += formatString("nodes %d\n", G.numNodes());
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead) {
      Out += formatString("%%%d = dead\n", Id);
      continue;
    }
    Out += formatString("%%%d = %s", Id, opKindName(N.Kind));
    if (N.Kind != OpKind::Input && N.Kind != OpKind::Constant) {
      std::vector<std::string> Refs;
      for (NodeId In : N.Inputs)
        Refs.push_back(formatString("%%%d", In));
      Out += "(" + joinStrings(Refs, ", ") + ")";
    }
    Out += " \"" + escapeText(N.Name) + "\" : " + shapeText(N.OutShape);
    if (N.Kind == OpKind::Constant) {
      Out += formatString(" %s :", dtypeName(N.ConstValue.dtype()));
      for (int64_t I = 0; I < N.ConstValue.numElements(); ++I)
        Out += formatString(" %a",
                            static_cast<double>(N.ConstValue.at(I)));
    }
    if (!N.Attrs.entries().empty()) {
      std::vector<std::string> Parts;
      for (const auto &[Name, Value] : N.Attrs.entries())
        Parts.push_back(Name + "=" + attrValueText(Value));
      Out += " {" + joinStrings(Parts, " ") + "}";
    }
    Out += '\n';
  }
  std::vector<std::string> Refs;
  for (NodeId Out2 : G.outputs())
    Refs.push_back(formatString("%%%d", Out2));
  Out += "outputs " + joinStrings(Refs, " ") + "\n";
  return Out;
}

Expected<Graph> dnnfusion::graphFromText(const std::string &Text) {
  std::vector<std::string> Lines = splitString(Text, '\n');
  auto LineError = [](size_t LineNo, const std::string &Why) {
    return Status::errorf(ErrorCode::DataLoss, "graph text line %zu: %s",
                          LineNo + 1, Why.c_str());
  };
  // Skip blanks and # comments.
  size_t L = 0;
  auto NextLine = [&]() -> const std::string * {
    while (L < Lines.size()) {
      std::string Trimmed = trimString(Lines[L]);
      if (!Trimmed.empty() && Trimmed[0] != '#')
        return &Lines[L];
      ++L;
    }
    return nullptr;
  };

  const std::string *Header = NextLine();
  if (!Header || trimString(*Header) != "dnnfusion-graph-text 1")
    return LineError(L, "missing 'dnnfusion-graph-text 1' header");
  ++L;

  const std::string *CountLine = NextLine();
  if (!CountLine)
    return LineError(L, "missing 'nodes <count>' line");
  LineParser CP(*CountLine);
  CP.expect("nodes");
  int64_t NumNodes = CP.integer();
  if (CP.failed() || !CP.atEnd() || NumNodes < 0 || NumNodes > (1 << 24))
    return LineError(L, CP.failed() ? CP.Err : "malformed node count");
  ++L;

  std::vector<Node> Nodes;
  for (int64_t I = 0; I < NumNodes; ++I) {
    const std::string *Line = NextLine();
    if (!Line)
      return LineError(L, formatString("expected node %%%lld, found end of "
                                       "document",
                                       static_cast<long long>(I)));
    LineParser P(*Line);
    NodeId Id = P.nodeRef();
    P.expect("=");
    if (P.failed())
      return LineError(L, P.Err);
    if (Id != static_cast<NodeId>(I))
      return LineError(L, formatString("expected node %%%lld, found %%%d",
                                       static_cast<long long>(I), Id));
    Node N;
    if (P.peekIs('d')) {
      P.expect("dead");
      if (P.failed() || !P.atEnd())
        return LineError(L, P.failed() ? P.Err : "trailing text after 'dead'");
      N.Dead = true;
      Nodes.push_back(std::move(N));
      ++L;
      continue;
    }
    bool Found = false;
    N.Kind = opKindFromName(P.word(), Found);
    if (P.failed())
      return LineError(L, P.Err);
    if (!Found)
      return LineError(L, "unknown operator kind");
    if (N.Kind != OpKind::Input && N.Kind != OpKind::Constant) {
      P.expect("(");
      if (!P.peekIs(')'))
        do
          N.Inputs.push_back(P.nodeRef());
        while (!P.failed() && P.tryEat(','));
      P.expect(")");
    }
    N.Name = P.quoted();
    P.expect(":");
    N.OutShape = P.shape();
    if (P.failed())
      return LineError(L, P.Err);
    if (N.Kind == OpKind::Constant) {
      std::string Ty = P.word();
      DType Dtype;
      if (Ty == "f32")
        Dtype = DType::Float32;
      else if (Ty == "i32")
        Dtype = DType::Int32;
      else
        return LineError(L, "expected dtype 'f32' or 'i32'");
      P.expect(":");
      Tensor Value(N.OutShape, Dtype); // Element count capped by shape().
      for (int64_t E = 0; E < Value.numElements() && !P.failed(); ++E)
        Value.at(E) = P.floatValue();
      if (P.failed())
        return LineError(L, P.Err);
      N.ConstValue = std::move(Value);
    }
    if (P.tryEat('{')) {
      while (!P.failed() && !P.tryEat('}')) {
        std::string Name = P.word();
        P.expect("=");
        if (P.failed())
          break;
        if (P.peekIs('[')) {
          P.expect("[");
          std::vector<int64_t> List;
          if (!P.peekIs(']'))
            do
              List.push_back(P.integer());
            while (!P.failed() && P.tryEat(','));
          P.expect("]");
          N.Attrs.set(Name, std::move(List));
        } else if (P.peekIs('"')) {
          N.Attrs.set(Name, P.quoted());
        } else if (P.peekIs('f')) {
          P.expect("f:");
          N.Attrs.set(Name, P.doubleValue());
        } else {
          N.Attrs.set(Name, P.integer());
        }
      }
    }
    if (P.failed())
      return LineError(L, P.Err);
    if (!P.atEnd())
      return LineError(L, "trailing text after node definition");
    Nodes.push_back(std::move(N));
    ++L;
  }

  const std::string *OutLine = NextLine();
  if (!OutLine)
    return LineError(L, "missing 'outputs' line");
  LineParser OP(*OutLine);
  OP.expect("outputs");
  std::vector<NodeId> Outputs;
  while (!OP.failed() && !OP.atEnd())
    Outputs.push_back(OP.nodeRef());
  if (OP.failed())
    return LineError(L, OP.Err);
  ++L;
  if (NextLine())
    return LineError(L, "unexpected content after the outputs line");

  return Graph::fromParts(std::move(Nodes), std::move(Outputs));
}
