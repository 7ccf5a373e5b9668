#include "common/atomic_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace halk {

namespace {

Status Errno(const char* what, const std::string& path) {
  return Status::IOError(std::string(what) + " " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

Status AtomicFileWriter::Open(const std::string& path) {
  Abandon();
  path_ = path;
  tmp_ = path + ".tmp";
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) return Errno("cannot open for writing", tmp_);
  return Status::OK();
}

void AtomicFileWriter::Write(const void* data, size_t n) {
  if (file_ != nullptr && n > 0) std::fwrite(data, 1, n, file_);
}

Status AtomicFileWriter::Commit() {
  if (file_ == nullptr) return Status::IOError("no open file to commit");
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    const Status failed = Errno("write failed:", tmp_);
    Abandon();
    return failed;
  }
  if (::fsync(::fileno(file_)) != 0) {
    const Status failed = Errno("fsync failed:", tmp_);
    Abandon();
    return failed;
  }
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) {
    const Status failed = Errno("close failed:", tmp_);
    std::remove(tmp_.c_str());
    return failed;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const Status failed = Errno("rename failed:", tmp_ + " -> " + path_);
    std::remove(tmp_.c_str());
    return failed;
  }
  return Status::OK();
}

void AtomicFileWriter::Abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  std::remove(tmp_.c_str());
}

}  // namespace halk
