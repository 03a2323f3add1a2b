//===- support/KeyValueFile.h - Simple key=value persistence ----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented "key=value" text file used to persist the profiling
/// database (paper §5.3, Figure 9b). Each line splits at its last '=', so
/// keys may contain '=' (block signatures render attributes as
/// "{alpha=0.1}"); values may not. Neither may contain a newline, and
/// surrounding whitespace is trimmed.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_KEYVALUEFILE_H
#define DNNFUSION_SUPPORT_KEYVALUEFILE_H

#include <map>
#include <string>

namespace dnnfusion {

/// Loads a key=value file into \p Out. Returns false when the file does
/// not exist (an empty database); aborts on malformed content.
bool loadKeyValueFile(const std::string &Path,
                      std::map<std::string, std::string> &Out);

/// Writes \p Entries to \p Path, one "key=value" line each, sorted by key.
/// Returns false when the file cannot be written.
bool storeKeyValueFile(const std::string &Path,
                       const std::map<std::string, std::string> &Entries);

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_KEYVALUEFILE_H
