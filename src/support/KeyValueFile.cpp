//===- support/KeyValueFile.cpp - Simple key=value persistence -------------===//

#include "support/KeyValueFile.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace dnnfusion;

bool dnnfusion::loadKeyValueFile(const std::string &Path,
                                 std::map<std::string, std::string> &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  std::string Content;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Content.append(Buffer, Got);
  std::fclose(File);

  for (const std::string &RawLine : splitString(Content, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Eq = Line.rfind('=');
    DNNF_CHECK(Eq != std::string::npos, "malformed line in %s: '%s'",
               Path.c_str(), Line.c_str());
    Out[Line.substr(0, Eq)] = Line.substr(Eq + 1);
  }
  return true;
}

bool dnnfusion::storeKeyValueFile(
    const std::string &Path, const std::map<std::string, std::string> &Entries) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  for (const auto &[Key, Value] : Entries)
    std::fprintf(File, "%s=%s\n", Key.c_str(), Value.c_str());
  std::fclose(File);
  return true;
}
