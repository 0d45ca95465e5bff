// Filesystem helpers shared by every writer of result artifacts.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

namespace dsa::util {

/// Atomically replaces `path` with `contents`: writes `<path>.tmp`, flushes,
/// then renames over the target, so readers never see a torn or partial
/// file. Creates parent directories as needed. Throws std::runtime_error on
/// any I/O failure (with the path in the message). This is the one
/// write-then-rename implementation behind CSV caches, checkpoints, bench
/// JSON, and the obs trace/metrics files.
void atomic_write(const std::filesystem::path& path, std::string_view contents);

/// Sidecars: a one-line file beside a cached output naming the fingerprint
/// of the inputs that produced it.
///
/// The one reuse policy for such outputs. Returns true when `output` exists
/// and may be reused: its `sidecar` is absent (the output was placed by
/// hand, or is older than sidecars) or names `fingerprint`. An output whose
/// sidecar names other inputs is deleted together with that sidecar, so a
/// recompute killed before it writes leaves nothing to be reused, and
/// `stale` (when given) receives the fingerprint it named. Returns false
/// with `stale` untouched when there is no output.
bool reuse_cached_output(const std::filesystem::path& output,
                         const std::filesystem::path& sidecar,
                         std::string_view fingerprint,
                         std::string* stale = nullptr);

/// Atomically records `fingerprint` at `sidecar`. Callers write the sidecar
/// before the output, so a run killed between the two leaves a sidecar with
/// no output, which the next run recomputes.
void write_sidecar(const std::filesystem::path& sidecar,
                   std::string_view fingerprint);

}  // namespace dsa::util
