//===- profiler/ProfileDb.cpp - Profiling result database -------------------------===//

#include "profiler/ProfileDb.h"

#include "support/KeyValueFile.h"
#include "support/StringUtils.h"

#include <cstdlib>

using namespace dnnfusion;

bool ProfileDb::lookup(const std::string &Signature, double &LatencyMs) const {
  auto It = Entries.find(Signature);
  if (It == Entries.end()) {
    ++Misses;
    return false;
  }
  ++Hits;
  LatencyMs = It->second;
  return true;
}

void ProfileDb::record(const std::string &Signature, double LatencyMs) {
  Entries[Signature] = LatencyMs;
}

bool ProfileDb::load(const std::string &Path) {
  std::map<std::string, std::string> Raw;
  if (!loadKeyValueFile(Path, Raw))
    return false;
  for (const auto &[Key, Value] : Raw)
    Entries[Key] = std::strtod(Value.c_str(), nullptr);
  return true;
}

bool ProfileDb::store(const std::string &Path) const {
  std::map<std::string, std::string> Raw;
  for (const auto &[Key, Value] : Entries)
    Raw[Key] = formatString("%.17g", Value); // Reloads to the same double.
  return storeKeyValueFile(Path, Raw);
}
