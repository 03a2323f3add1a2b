//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities: printf-style formatting into std::string,
/// splitting, joining, and trimming. The library avoids iostreams.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_STRINGUTILS_H
#define DNNFUSION_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace dnnfusion {

/// printf-style formatting returning a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list variant of formatString, for variadic wrappers (Status::errorf,
/// reportFatalErrorf). Dynamically sized; falls back to \p Fmt verbatim on
/// an encoding error.
std::string vformatString(const char *Fmt, va_list Args);

/// Splits \p S at every occurrence of \p Sep. Empty pieces are kept.
std::vector<std::string> splitString(const std::string &S, char Sep);

/// Joins \p Pieces with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Pieces,
                        const std::string &Sep);

/// Removes leading and trailing whitespace.
std::string trimString(const std::string &S);

/// Renders a list of integers as "[a, b, c]".
std::string intsToString(const std::vector<int64_t> &Values);

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_STRINGUTILS_H
