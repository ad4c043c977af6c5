// Byte I/O, of whole files or of ranges, for the binary formats written to
// and read from the host's file system (disk images, disk traces, workload
// traces, JSON reports).

#ifndef CEDAR_UTIL_FILE_H_
#define CEDAR_UTIL_FILE_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cedar {

// `what` names the file in errors, e.g. "trace file".

// Receives a file's bytes in order, one span at a time.
using ByteSink = std::function<void(std::span<const std::uint8_t>)>;

// Writes everything `produce` hands its sink, back to back, replacing the
// file.
inline Status WriteFileStream(
    const std::string& path,
    const std::function<void(const ByteSink&)>& produce,
    const std::string& what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "cannot open " + what + " for writing: " + path);
  }
  produce([&](std::span<const std::uint8_t> bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  });
  out.flush();
  return out ? OkStatus()
             : MakeError(ErrorCode::kInternal, "short write to " + what);
}

inline Status WriteFileBytes(const std::string& path,
                             std::span<const std::uint8_t> bytes,
                             const std::string& what) {
  return WriteFileStream(
      path, [&](const ByteSink& sink) { sink(bytes); }, what);
}

inline Result<std::uint64_t> FileSize(const std::string& path,
                                      const std::string& what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
  if (size < 0) {
    return MakeError(ErrorCode::kNotFound, "cannot open " + what + ": " + path);
  }
  return static_cast<std::uint64_t>(size);
}

// An open file that reads byte ranges, for a decoder that takes a large
// file a piece at a time.
class FileReader {
 public:
  FileReader(const std::string& path, const std::string& what)
      : in_(path, std::ios::binary), path_(path), what_(what) {}

  // Fills `out` from the file's bytes at `offset`.
  Status ReadAt(std::uint64_t offset, std::span<std::uint8_t> out) {
    if (!in_.is_open()) {
      return MakeError(ErrorCode::kNotFound,
                       "cannot open " + what_ + ": " + path_);
    }
    in_.seekg(static_cast<std::streamoff>(offset));
    in_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    return in_ ? OkStatus()
               : MakeError(ErrorCode::kInternal, "short read from " + what_);
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::string what_;
};

inline Result<std::vector<std::uint8_t>> ReadFileBytes(
    const std::string& path, const std::string& what) {
  CEDAR_ASSIGN_OR_RETURN(const std::uint64_t size, FileSize(path, what));
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  CEDAR_RETURN_IF_ERROR(FileReader(path, what).ReadAt(0, bytes));
  return bytes;
}

}  // namespace cedar

#endif  // CEDAR_UTIL_FILE_H_
