//===- ops/Attributes.h - Operator attribute bags ----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AttrMap: a small name -> value dictionary attached to each graph node
/// (kernel sizes, strides, permutations, epsilon...). Values are int,
/// float, int-list, or string; missing required attributes abort with a
/// descriptive message.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_OPS_ATTRIBUTES_H
#define DNNFUSION_OPS_ATTRIBUTES_H

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace dnnfusion {

/// A single attribute value.
using AttrValue =
    std::variant<int64_t, double, std::vector<int64_t>, std::string>;

/// Ordered attribute dictionary. Ordering (std::map) keeps signatures
/// deterministic.
class AttrMap {
public:
  AttrMap() = default;

  AttrMap &set(const std::string &Name, int64_t V);
  AttrMap &set(const std::string &Name, int V) {
    return set(Name, static_cast<int64_t>(V));
  }
  AttrMap &set(const std::string &Name, double V);
  AttrMap &set(const std::string &Name, std::vector<int64_t> V);
  AttrMap &set(const std::string &Name, std::string V);
  AttrMap &set(const std::string &Name, const char *V) {
    return set(Name, std::string(V));
  }

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }

  /// Typed getters with a default for optional attributes.
  int64_t getInt(const std::string &Name, int64_t Default) const;
  double getFloat(const std::string &Name, double Default) const;
  std::vector<int64_t> getInts(const std::string &Name,
                               std::vector<int64_t> Default = {}) const;
  std::string getString(const std::string &Name,
                        std::string Default = "") const;

  /// Typed getters that abort when the attribute is missing.
  int64_t requireInt(const std::string &Name) const;
  double requireFloat(const std::string &Name) const;
  const std::vector<int64_t> &requireInts(const std::string &Name) const;

  /// Canonical "k1=v1;k2=v2" rendering used in block signatures
  /// (blockSignature) and graph dumps.
  std::string signature() const;

  /// Read-only view of all attributes, sorted by name (used by tooling that
  /// needs to reproduce a node verbatim, e.g. the fuzz-repro printer).
  const std::map<std::string, AttrValue> &entries() const { return Values; }

  bool operator==(const AttrMap &Other) const { return Values == Other.Values; }

private:
  std::map<std::string, AttrValue> Values;
};

} // namespace dnnfusion

#endif // DNNFUSION_OPS_ATTRIBUTES_H
