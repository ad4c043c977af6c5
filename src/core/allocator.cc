#include "src/core/allocator.h"

#include <algorithm>

#include "src/util/check.h"

namespace cedar::core {

Result<std::vector<fs::Extent>> RunAllocator::Allocate(std::uint32_t sectors,
                                                       std::uint32_t tail) {
  CEDAR_CHECK(sectors > 0);
  const bool big = sectors >= big_threshold_;
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
    std::optional<std::uint32_t> start = FindRun(big, want, tail);
    while (!start && want > floor) {
      want = std::max(floor, want / 2);
      start = FindRun(big, want, tail);
    }
    if (!start) {
      Release(extents);
      return MakeError(ErrorCode::kNoFreeSpace, "volume full");
    }
    const fs::Extent run{.start = *start, .count = want};
    vam_->MarkUsed(run);
    extents.push_back(run);
    remaining -= want;
    if (tail != 0) {
      tail = run.start + run.count;
    }
  }
  return extents;
}

std::optional<std::uint32_t> RunAllocator::FindRun(bool big,
                                                   std::uint32_t count,
                                                   std::uint32_t tail) const {
  const Bitmap& free = vam_->free();
  // The highest / lowest free run lying wholly inside [lo, hi).
  auto highest = [&](std::uint32_t lo,
                     std::uint32_t hi) -> std::optional<std::uint32_t> {
    const std::optional<std::uint32_t> s = free.FindRunBackward(hi - 1, count);
    return s && *s >= lo ? s : std::nullopt;
  };
  auto lowest = [&](std::uint32_t lo,
                    std::uint32_t hi) -> std::optional<std::uint32_t> {
    const std::optional<std::uint32_t> s = free.FindRunForward(lo, count);
    return s && *s + count <= hi ? s : std::nullopt;
  };
  if (tail != 0) {  // an extension: after the file, to stay one run
    const std::optional<std::uint32_t> s = lowest(tail, data_high_);
    if (s && (*s == tail || !big)) return s;
  }
  if (big) {  // inward from the volume's edges
    if (auto s = highest(meta_high_, data_high_)) return s;
    return lowest(data_low_, meta_low_);
  }
  // outward from the metadata complex
  if (auto s = highest(data_low_, meta_low_)) return s;
  return lowest(meta_high_, data_high_);
}

void RunAllocator::Release(const std::vector<fs::Extent>& extents) {
  for (const fs::Extent& run : extents) {
    vam_->MarkFree(run);
  }
}

}  // namespace cedar::core
