#include "util/fs.hpp"

#include <fstream>
#include <stdexcept>

namespace dsa::util {

void atomic_write(const std::filesystem::path& path,
                  std::string_view contents) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("atomic_write: cannot open for write: " +
                               tmp.string());
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("atomic_write: write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw std::runtime_error("atomic_write: rename to " + path.string() +
                             " failed: " + ec.message());
  }
}

bool reuse_cached_output(const std::filesystem::path& output,
                         const std::filesystem::path& sidecar,
                         std::string_view fingerprint, std::string* stale) {
  if (!std::filesystem::exists(output)) return false;
  std::string recorded;
  {
    std::ifstream in(sidecar, std::ios::binary);
    if (in) std::getline(in, recorded);
  }
  if (recorded.empty() || recorded == fingerprint) return true;
  if (stale != nullptr) *stale = recorded;
  std::error_code ignored;
  std::filesystem::remove(output, ignored);
  std::filesystem::remove(sidecar, ignored);
  return false;
}

void write_sidecar(const std::filesystem::path& sidecar,
                   std::string_view fingerprint) {
  atomic_write(sidecar, std::string(fingerprint) + "\n");
}

}  // namespace dsa::util
