#include "src/core/allocator.h"

#include <algorithm>

#include "src/util/check.h"

namespace cedar::core {

Result<std::vector<fs::Extent>> RunAllocator::Allocate(
    std::uint32_t sectors) {
  CEDAR_CHECK(sectors > 0);
  return AllocateFrom(sectors, /*big=*/sectors >= big_threshold_);
}

Result<std::vector<fs::Extent>> RunAllocator::AllocateFrom(
    std::uint32_t sectors, bool big) {
  std::vector<fs::Extent> extents;
  std::uint32_t remaining = sectors;
  const std::uint32_t min_first = std::min<std::uint32_t>(sectors, 2);

  while (remaining > 0) {
    if (extents.size() == kMaxRuns) {
      Release(extents);
      return MakeError(ErrorCode::kNoFreeSpace,
                       "free space too fragmented for run table");
    }
    std::uint32_t want = remaining;
    // The first extent must keep leader + data page 0 together.
    const std::uint32_t floor = extents.empty() ? min_first : 1;
    std::optional<std::uint32_t> start;
    while (want >= floor) {
      const std::optional<std::uint32_t> found =
          big ? vam_->free().FindRunBackward(data_high_ - 1, want)
              : vam_->free().FindRunForward(data_low_, want);
      if (found && *found >= data_low_ && *found + want <= data_high_) {
        start = found;
        break;
      }
      if (want == floor) {
        break;
      }
      want = std::max(floor, want / 2);
    }
    if (!start) {
      // Last resort: spill into the other region before giving up.
      std::optional<std::uint32_t> spill =
          big ? vam_->free().FindRunForward(data_low_, floor)
              : vam_->free().FindRunBackward(data_high_ - 1, floor);
      if (!spill || *spill < data_low_ || *spill + floor > data_high_) {
        Release(extents);
        return MakeError(ErrorCode::kNoFreeSpace, "volume full");
      }
      start = spill;
      want = floor;
    }
    const fs::Extent run{.start = *start, .count = want};
    vam_->MarkUsed(run);
    extents.push_back(run);
    remaining -= want;
  }
  return extents;
}

void RunAllocator::Release(const std::vector<fs::Extent>& extents) {
  for (const fs::Extent& run : extents) {
    vam_->MarkFree(run);
  }
}

}  // namespace cedar::core
