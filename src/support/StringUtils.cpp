//===- support/StringUtils.cpp - String helpers ---------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace dnnfusion;

std::string dnnfusion::vformatString(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed < 0)
    return std::string(Fmt);
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

std::string dnnfusion::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Out = vformatString(Fmt, Args);
  va_end(Args);
  return Out;
}

std::vector<std::string> dnnfusion::splitString(const std::string &S,
                                                char Sep) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Pieces.push_back(S.substr(Start));
      return Pieces;
    }
    Pieces.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string dnnfusion::joinStrings(const std::vector<std::string> &Pieces,
                                   const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Pieces[I];
  }
  return Out;
}

std::string dnnfusion::trimString(const std::string &S) {
  size_t Begin = S.find_first_not_of(" \t\r\n");
  if (Begin == std::string::npos)
    return "";
  size_t End = S.find_last_not_of(" \t\r\n");
  return S.substr(Begin, End - Begin + 1);
}

std::string dnnfusion::intsToString(const std::vector<int64_t> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += formatString("%lld", static_cast<long long>(Values[I]));
  }
  Out += "]";
  return Out;
}
