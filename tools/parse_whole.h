// Whole-value parsing for the numeric flags of the crash and fault tools.

#ifndef CEDAR_TOOLS_PARSE_WHOLE_H_
#define CEDAR_TOOLS_PARSE_WHOLE_H_

#include <charconv>
#include <cstring>
#include <system_error>

namespace cedar::tools {

// Parses `text` as a whole unsigned decimal into `*out`: no sign, no
// space, no trailing bytes, no overflow. False (and `*out` unspecified)
// otherwise.
template <typename T>
bool ParseWhole(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const std::from_chars_result parsed = std::from_chars(text, end, *out);
  return text != end && parsed.ec == std::errc() && parsed.ptr == end;
}

}  // namespace cedar::tools

#endif  // CEDAR_TOOLS_PARSE_WHOLE_H_
