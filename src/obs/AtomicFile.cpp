//===- obs/AtomicFile.cpp - Crash-consistent file publication -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/AtomicFile.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

using namespace gjs;

std::string obs::writeSyncedTemp(const std::string &Path,
                                 const std::string &Content) {
  static std::atomic<unsigned> Seq{0};
  std::filesystem::path Final(Path);
  std::string Tmp =
      (Final.parent_path() / ("." + Final.filename().string() + ".tmp." +
                              std::to_string(::getpid()) + "." +
                              std::to_string(Seq++)))
          .string();
  int FD = ::open(Tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (FD < 0)
    return "";
  size_t Off = 0;
  while (Off < Content.size()) {
    ssize_t N = ::write(FD, Content.data() + Off, Content.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  bool Ok = Off == Content.size() && ::fsync(FD) == 0;
  Ok = ::close(FD) == 0 && Ok;
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return "";
  }
  return Tmp;
}

bool obs::writeFileAtomic(const std::string &Path,
                          const std::string &Content) {
  std::string Tmp = writeSyncedTemp(Path, Content);
  if (Tmp.empty())
    return false;
  if (::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  ::unlink(Tmp.c_str());
  return false;
}
