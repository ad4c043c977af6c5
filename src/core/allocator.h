// The FSD run allocator (paper section 5.6).
//
// The paper splits the data area into a small-file region and a big-file
// region, like a heap and a stack, so that small files — 50% of files are
// under 4000 bytes but occupy only 8% of the sectors — do not chop up the
// large free runs. The split is a *hint*, not an invariant.
//
// Here the split also follows the paper's locality principle (section 5):
// the log and the name-table bands sit on the central cylinders, so the
// metadata complex [complex_begin(), complex_end()) cuts the data area into
// a lower and an upper half. Small files — whose every create, open and
// read also touches the name table — hug the complex: the highest free run
// below the log first, then the lowest free run above the last band. Big
// files — long transfers where a seek is cheap by comparison — hug the
// volume's edges: the highest free run below data_high first, then the
// lowest free run above data_low. Each half is thus its own heap/stack
// pair, and FsdConfig::big_file_threshold_sectors stays the split's only
// knob.
// Small files start in the lower half and big files in the upper one, so
// neither fills the other's holes until its own half is full; packing
// small files upward from the bands first would put both in the upper half
// and keep only about a third of the largest free run (EXPERIMENTS.md,
// section 5.6).
//
// Files are allocated leader-first: the first extent always holds the
// leader sector immediately followed by data page 0, so the leader read
// can piggyback on the first data access (section 5.7).
//
// An extension of an existing file first takes the free run that starts
// at the file's tail, so the file stays one run. A small extension may
// also skip ahead to the lowest free run past the tail; a big one that
// cannot continue in place goes where big files go. Small files pack
// downward, so the sectors after a small file are usually taken, and the
// policy above alone would put each append below the file in a new run:
// the 16-run table would fill after 15 appends. (A file created empty has
// no tail to continue: its first Extend allocates a new leader with the
// pages instead, in Fsd::ExtendLocked.)

#ifndef CEDAR_CORE_ALLOCATOR_H_
#define CEDAR_CORE_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/layout.h"
#include "src/core/vam.h"
#include "src/fsapi/extent.h"
#include "src/util/check.h"
#include "src/util/status.h"

namespace cedar::core {

class RunAllocator {
 public:
  // Entries larger than this many runs no longer fit in a name-table page.
  static constexpr std::size_t kMaxRuns = 16;

  // Bounds arrive as 64-bit device LBAs (FsdLayout fields); the layout
  // bounds a volume to 2^31 sectors, so run starts still fit the 32-bit
  // on-disk extent encoding — checked here, not silently truncated.
  RunAllocator(Vam* vam, const FsdLayout& layout,
               std::uint32_t big_threshold_sectors)
      : vam_(vam),
        data_low_(static_cast<std::uint32_t>(layout.data_low)),
        meta_low_(static_cast<std::uint32_t>(layout.complex_begin())),
        meta_high_(static_cast<std::uint32_t>(layout.complex_end())),
        data_high_(static_cast<std::uint32_t>(layout.data_high)),
        big_threshold_(big_threshold_sectors) {
    CEDAR_CHECK(layout.data_high <= (std::uint64_t{1} << 31) &&
                layout.data_low < layout.complex_begin() &&
                layout.complex_begin() <= layout.complex_end() &&
                layout.complex_end() < layout.data_high);
  }

  // Allocates `sectors` sectors (leader included) and marks them used.
  // Tries one contiguous run first, then splits, never exceeding kMaxRuns
  // extents. The first extent is at least min(sectors, 2) long so the
  // leader and data page 0 stay adjacent. `tail`, when nonzero, is one
  // past the last sector of the file being extended.
  Result<std::vector<fs::Extent>> Allocate(std::uint32_t sectors,
                                           std::uint32_t tail = 0);

  // Frees via the VAM immediately (allocation rollback only; committed
  // deletes go through the shadow map).
  void Release(const std::vector<fs::Extent>& extents);

  std::uint32_t big_threshold() const { return big_threshold_; }

  // The lowest LBA of the `sectors` sectors that a fresh volume's first
  // small files fill: small files pack downward from the log, so they sit
  // in [FirstSmallFileStart(layout, sectors), complex_begin()). Tests, the
  // demos, tracedump and the section-6 model aim here.
  static sim::Lba FirstSmallFileStart(const FsdLayout& layout,
                                      std::uint32_t sectors) {
    return layout.complex_begin() - sectors;
  }

 private:
  // Start of a free run of `count` sectors in the order described at the
  // top of this file (from `tail` first when it is nonzero); the two
  // searches by size together cover the whole data area.
  std::optional<std::uint32_t> FindRun(bool big, std::uint32_t count,
                                       std::uint32_t tail) const;

  Vam* vam_;
  std::uint32_t data_low_;
  std::uint32_t meta_low_;   // complex_begin(): the log starts here
  std::uint32_t meta_high_;  // complex_end(): one past the last replica
  std::uint32_t data_high_;
  std::uint32_t big_threshold_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_ALLOCATOR_H_
