// A run of consecutive sectors (the File Package allocates in runs/extents).

#ifndef CEDAR_FSAPI_EXTENT_H_
#define CEDAR_FSAPI_EXTENT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace cedar::fs {

struct Extent {
  std::uint32_t start = 0;  // LBA of the first sector
  std::uint32_t count = 0;  // number of sectors

  friend bool operator==(const Extent& a, const Extent& b) {
    return a.start == b.start && a.count == b.count;
  }
};

// The disk extents holding file pages [first_page, first_page + count) of
// a file laid out in `runs` (page 0 at the first run's start);
// kOutOfRange when the range runs past the file. CFS's extents carry a
// 64-bit start, hence the template.
template <typename Run>
Result<std::vector<Run>> MapPages(const std::vector<Run>& runs,
                                  std::uint32_t first_page,
                                  std::uint32_t count) {
  std::vector<Run> out;
  std::uint32_t page = 0;
  for (const Run& run : runs) {
    if (count == 0) {
      break;
    }
    if (first_page < page + run.count) {
      const std::uint32_t skip = first_page > page ? first_page - page : 0;
      const std::uint32_t take = std::min(run.count - skip, count);
      out.push_back(Run{.start = run.start + skip, .count = take});
      count -= take;
      first_page += take;
    }
    page += run.count;
  }
  if (count != 0) {
    return MakeError(ErrorCode::kOutOfRange, "page range beyond file");
  }
  return out;
}

}  // namespace cedar::fs

#endif  // CEDAR_FSAPI_EXTENT_H_
