//===- serialize/GraphSerializer.h - Graph persistence -----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the full Graph IR — nodes, attributes, weight payloads,
/// named inputs/outputs, dead-slot tombstones — as a self-describing binary
/// encoding (the GRPH section of the container format specified in
/// docs/FORMAT.md), byte-identical across hosts and exact to the bit for
/// weights. Graph::toString() is the human-readable dump.
///
/// Node ids survive the round trip verbatim (dead slots included), which
/// is what lets a FusionPlan serialized next to the graph keep referring to
/// its nodes by id.
///
/// The reader treats its input as untrusted: every malformed byte stream
/// is rejected with a DataLoss/InvalidGraph Status — never an abort — and
/// the decoded graph passes the same Graph::validate() gate as any
/// user-supplied graph.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERIALIZE_GRAPHSERIALIZER_H
#define DNNFUSION_SERIALIZE_GRAPHSERIALIZER_H

#include "graph/Graph.h"
#include "serialize/ByteStream.h"

#include <string>

namespace dnnfusion {

/// Appends the binary encoding of \p G to \p W.
void serializeGraph(const Graph &G, ByteWriter &W);

/// Bytes to reserve for \p G's binary encoding: every live constant's
/// payload plus an allowance per node slot for its record, so a writer
/// reserved with it takes the encoding in one allocation.
size_t graphEncodingReserve(const Graph &G);

/// Decodes a graph from \p R (positioned at the start of a graph
/// encoding). On success the graph has passed Graph::validate().
Expected<Graph> deserializeGraph(ByteReader &R);

/// Decodes a graph from \p Bytes; trailing bytes are a DataLoss error.
Expected<Graph> deserializeGraph(const std::string &Bytes);

} // namespace dnnfusion

#endif // DNNFUSION_SERIALIZE_GRAPHSERIALIZER_H
