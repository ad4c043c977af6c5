// Whole-file byte I/O for the binary formats written to and read from the
// host's file system (disk traces, workload traces, JSON reports).

#ifndef CEDAR_UTIL_FILE_H_
#define CEDAR_UTIL_FILE_H_

#include <cstdint>
#include <fstream>
#include <iterator>
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return MakeError(ErrorCode::kNotFound, "cannot open " + what + ": " + path);
  }
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

}  // namespace cedar

#endif  // CEDAR_UTIL_FILE_H_
