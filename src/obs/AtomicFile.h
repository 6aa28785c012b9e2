//===- obs/AtomicFile.h - Crash-consistent file publication ------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writing a file so that a reader never sees half of it under its final
/// name: the content goes to a private, fsynced temp file beside the final
/// name first, which is then renamed (or, for exclusive publication,
/// linked) into place. Shared by every on-disk artifact: the work ledger's
/// markers and journals, metrics pages (`--metrics-out`), package summaries
/// (`--emit-summaries`) and BENCH_*.json files.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_OBS_ATOMICFILE_H
#define GJS_OBS_ATOMICFILE_H

#include <string>

namespace gjs {
namespace obs {

/// Writes \p Content to a private temp file beside \p Path and fsyncs it.
/// The temp name is a dotfile (directory listings skip it) unique per
/// process and call (pid plus a per-process counter), so concurrent
/// writers of one name never share a temp. Returns the temp path, or "" on
/// failure — with nothing left behind.
std::string writeSyncedTemp(const std::string &Path,
                            const std::string &Content);

/// Replaces \p Path with \p Content atomically and durably: the synced
/// temp file is renamed over it, so readers see the old content or the
/// new, never a torn half. On any failure returns false and leaves no
/// temp file behind.
bool writeFileAtomic(const std::string &Path, const std::string &Content);

} // namespace obs
} // namespace gjs

#endif // GJS_OBS_ATOMICFILE_H
