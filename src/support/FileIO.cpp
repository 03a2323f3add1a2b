//===- support/FileIO.cpp - Whole-file binary IO --------------------------------===//

#include "support/FileIO.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

using namespace dnnfusion;

Expected<std::string> dnnfusion::readFileBytes(const std::string &Path) {
  if (faultShouldFail(faultpoints::FileRead))
    return Status::errorf(ErrorCode::Internal,
                          "injected fault fileio.read on '%s'", Path.c_str());
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    ErrorCode Code =
        errno == ENOENT ? ErrorCode::NotFound : ErrorCode::Internal;
    return Status::errorf(Code, "cannot open '%s' for reading: %s",
                          Path.c_str(), std::strerror(errno));
  }
  // One allocation: reserve the size the file has now. The loop still
  // reads to EOF, so a file that changes size meanwhile reads whole.
  std::string Bytes;
  struct stat St;
  if (::fstat(fileno(F), &St) == 0 && St.st_size > 0)
    Bytes.reserve(static_cast<size_t>(St.st_size));
  char Chunk[1 << 16];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Bytes.append(Chunk, N);
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError)
    return Status::errorf(ErrorCode::Internal, "error while reading '%s'",
                          Path.c_str());
  return Bytes;
}

Status dnnfusion::writeFileAtomic(const std::string &Path,
                                  const std::string &Bytes) {
  if (faultShouldFail(faultpoints::FileWrite))
    return Status::errorf(ErrorCode::Internal,
                          "injected fault fileio.write on '%s'", Path.c_str());
  // Unique per writer — pid alone is not enough, two threads of one
  // process storing the same cache entry would share a temp file and
  // rename interleaved garbage into place. With a per-process counter,
  // concurrent writers race only on the rename, which is fine: every
  // temp file holds complete content and rename is atomic.
  static std::atomic<unsigned> Serial{0};
  std::string TmpPath = formatString(
      "%s.tmp.%ld.%u", Path.c_str(), static_cast<long>(getpid()),
      Serial.fetch_add(1, std::memory_order_relaxed));
  FILE *F = std::fopen(TmpPath.c_str(), "wb");
  if (!F)
    return Status::errorf(ErrorCode::Internal,
                          "cannot open '%s' for writing: %s", TmpPath.c_str(),
                          std::strerror(errno));
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Flushed = std::fflush(F) == 0;
  std::fclose(F);
  if (Written != Bytes.size() || !Flushed) {
    std::remove(TmpPath.c_str());
    return Status::errorf(ErrorCode::Internal, "short write to '%s'",
                          TmpPath.c_str());
  }
  if (faultShouldFail(faultpoints::FileRename)) {
    std::remove(TmpPath.c_str());
    return Status::errorf(ErrorCode::Internal,
                          "injected fault fileio.rename on '%s'", Path.c_str());
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return Status::errorf(ErrorCode::Internal, "cannot rename '%s' to '%s': %s",
                          TmpPath.c_str(), Path.c_str(),
                          std::strerror(errno));
  }
  return Status();
}

bool dnnfusion::fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

Status dnnfusion::ensureDirectory(const std::string &Path) {
  if (Path.empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "ensureDirectory: empty path");
  // Walk the components, creating each missing prefix.
  for (size_t I = 1; I <= Path.size(); ++I) {
    if (I != Path.size() && Path[I] != '/')
      continue;
    std::string Prefix = Path.substr(0, I);
    if (Prefix.empty() || Prefix == "/")
      continue;
    if (::mkdir(Prefix.c_str(), 0755) == 0 || errno == EEXIST)
      continue;
    return Status::errorf(ErrorCode::Internal, "cannot create directory '%s': %s",
                          Prefix.c_str(), std::strerror(errno));
  }
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return Status::errorf(ErrorCode::Internal, "'%s' is not a directory",
                          Path.c_str());
  return Status();
}

void dnnfusion::removeFileIfExists(const std::string &Path) {
  std::remove(Path.c_str());
}
