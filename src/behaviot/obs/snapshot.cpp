#include "behaviot/obs/snapshot.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "behaviot/obs/crash_point.hpp"
#include "behaviot/obs/metrics.hpp"

namespace behaviot::obs {

namespace {

/// Temp name in the same directory as the target: rename(2) is only atomic
/// within one filesystem. The PID suffix keeps concurrent processes writing
/// the same path (e.g. two watch daemons misconfigured onto one file) from
/// trampling each other's temp file.
std::string temp_path_for(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

void set_error(std::string* error, const char* stage,
               const std::string& path) noexcept {
  if (error == nullptr) return;
  *error = std::string(stage) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

bool write_file_atomic(const std::string& path, std::string_view content,
                       std::string* error) noexcept {
  const std::string tmp = temp_path_for(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "open", tmp);
    return false;
  }
  bool ok = content.empty() ||
            std::fwrite(content.data(), 1, content.size(), f) ==
                content.size();
  // Flush user-space buffers before the rename; a short write or a full disk
  // surfaces here, while the target file is still the old generation.
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    set_error(error, "write", tmp);
    std::remove(tmp.c_str());
    return false;
  }
  crash_point("atomic_write.before_rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename", path);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

SnapshotWriter::SnapshotWriter(std::string path, SnapshotRotation rotation)
    : path_(std::move(path)), rotation_(rotation) {
  if (rotation_.keep == 0) rotation_.keep = 1;
}

bool SnapshotWriter::write(std::string_view content,
                           std::uint64_t window_index) {
  rotated_last_ = false;
  if (!write_file_atomic(path_, content, &error_)) {
    counter("telemetry.snapshot_write_failures").inc();
    return false;
  }
  counter("telemetry.snapshot_writes").inc();
  if (rotation_.max_bytes == 0 || content.size() <= rotation_.max_bytes) {
    return true;
  }
  // Over the cap: archive this generation under the window index that
  // completed it and let the caller start the next one from scratch. The
  // archive rename is atomic too, so readers always see complete documents.
  const std::string archive = path_ + "." + std::to_string(window_index);
  if (std::rename(path_.c_str(), archive.c_str()) != 0) {
    error_ = "rename " + archive + ": " + std::strerror(errno);
    counter("telemetry.snapshot_write_failures").inc();
    return false;
  }
  archives_.push_back(archive);
  ++rotations_;
  rotated_last_ = true;
  counter("telemetry.snapshot_rotations").inc();
  while (archives_.size() > rotation_.keep) {
    std::remove(archives_.front().c_str());
    archives_.erase(archives_.begin());
  }
  return true;
}

}  // namespace behaviot::obs
