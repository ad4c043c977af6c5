// Byte I/O, of whole files or of ranges, for the binary formats written to
// and read from the host's file system (disk images, disk traces, workload
// traces, JSON reports).

#ifndef CEDAR_UTIL_FILE_H_
#define CEDAR_UTIL_FILE_H_

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cedar {

// `what` names the file in errors, e.g. "trace file".
//
// Writes `parts` back to back, replacing the file.
inline Status WriteFileBytes(
    const std::string& path,
    std::initializer_list<std::span<const std::uint8_t>> parts,
    const std::string& what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "cannot open " + what + " for writing: " + path);
  }
  for (const std::span<const std::uint8_t> bytes : parts) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  out.flush();
  return out ? OkStatus()
             : MakeError(ErrorCode::kInternal, "short write to " + what);
}

inline Status WriteFileBytes(const std::string& path,
                             std::span<const std::uint8_t> bytes,
                             const std::string& what) {
  return WriteFileBytes(path, {bytes}, what);
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

// Fills `out` from the file's bytes at `offset`.
inline Status ReadFileInto(const std::string& path, std::uint64_t offset,
                           std::span<std::uint8_t> out,
                           const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return MakeError(ErrorCode::kNotFound, "cannot open " + what + ": " + path);
  }
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  return in ? OkStatus()
            : MakeError(ErrorCode::kInternal, "short read from " + what);
}

inline Result<std::vector<std::uint8_t>> ReadFileBytes(
    const std::string& path, std::uint64_t offset, std::uint64_t count,
    const std::string& what) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(count));
  CEDAR_RETURN_IF_ERROR(ReadFileInto(path, offset, bytes, what));
  return bytes;
}

inline Result<std::vector<std::uint8_t>> ReadFileBytes(
    const std::string& path, const std::string& what) {
  CEDAR_ASSIGN_OR_RETURN(const std::uint64_t size, FileSize(path, what));
  return ReadFileBytes(path, 0, size, what);
}

}  // namespace cedar

#endif  // CEDAR_UTIL_FILE_H_
