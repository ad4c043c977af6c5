// Whole-file byte I/O for the binary formats written to and read from the
// host's file system (disk traces, workload traces, JSON reports).

#ifndef CEDAR_UTIL_FILE_H_
#define CEDAR_UTIL_FILE_H_

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cedar {

// `what` names the file in errors, e.g. "trace file".
inline Status WriteFileBytes(const std::string& path,
                             std::span<const std::uint8_t> bytes,
                             const std::string& what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "cannot open " + what + " for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out ? OkStatus()
             : MakeError(ErrorCode::kInternal, "short write to " + what);
}

inline Result<std::vector<std::uint8_t>> ReadFileBytes(
    const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
  if (size < 0) {
    return MakeError(ErrorCode::kNotFound, "cannot open " + what + ": " + path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    return MakeError(ErrorCode::kInternal, "short read from " + what);
  }
  return bytes;
}

}  // namespace cedar

#endif  // CEDAR_UTIL_FILE_H_
