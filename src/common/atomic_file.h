#ifndef HALK_COMMON_ATOMIC_FILE_H_
#define HALK_COMMON_ATOMIC_FILE_H_

#include <cstddef>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace halk {

/// Durable, atomic replacement of one file — the single write path of
/// every checkpoint, params blob and snapshot manifest. Bytes go to
/// `<path>.tmp`; Commit flushes it, fsyncs it, closes it and renames it
/// over `path`, checking every step, so the new contents are on disk
/// before they become visible under `path`. Until Commit succeeds `path`
/// keeps its previous contents; a writer that fails or is destroyed
/// uncommitted removes its tmp file.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Creates (truncates) `<path>.tmp`.
  [[nodiscard]] Status Open(const std::string& path);

  /// Buffered append; a failure surfaces at Commit.
  void Write(const void* data, size_t n);

  [[nodiscard]] Status Commit();

 private:
  /// Closes and unlinks the tmp file, if one is still open.
  void Abandon();

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
};

}  // namespace halk

#endif  // HALK_COMMON_ATOMIC_FILE_H_
