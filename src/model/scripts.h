// Operation scripts for CFS and FSD, in the style of the paper's section-6
// example (the three-page CFS create). Each builder returns the expected
// step sequence of one operation under stated cache assumptions; the
// validation benchmark compares these predictions against simulator
// measurements of the real implementations.

#ifndef CEDAR_MODEL_SCRIPTS_H_
#define CEDAR_MODEL_SCRIPTS_H_

#include <cstdint>

#include "src/core/layout.h"
#include "src/model/disk_model.h"
#include "src/sim/geometry.h"

namespace cedar::model {

struct CpuParams {
  std::uint32_t cfs_per_op = 1500;
  std::uint32_t cfs_per_sector = 100;
  std::uint32_t fsd_per_op = 1200;
  std::uint32_t fsd_per_sector = 80;
};

// ---- CFS scripts (labels + headers + write-through name table).

// Create a file with `data_pages` data pages, allocated contiguously with
// the 2 header pages; VAM and name table warm in cache.
OpScript CfsCreate(std::uint32_t data_pages, const CpuParams& cpu);

// Open: name table warm; reads the 2-sector header.
OpScript CfsOpen(const CpuParams& cpu);

// Read one page of an open file.
OpScript CfsReadPage(const CpuParams& cpu);

// Delete a closed small file (header read + label frees + name table).
OpScript CfsDelete(std::uint32_t data_pages, const CpuParams& cpu);

// ---- FSD scripts (log + group commit; metadata updates are buffered, so
// the synchronous cost is what the scripts describe; the log's asynchronous
// share is reported separately by the group-commit benchmark). A small
// file's data lives at `data_permille` of the cylinder range.

// The cylinder of a volume's first small files, in permille of the
// cylinder range: just below the central name-table replica, where the
// allocator packs them (core::RunAllocator::FirstSmallFileStart).
std::uint32_t FsdSmallFilePermille(const sim::DiskGeometry& geometry,
                                   const core::FsdConfig& config);

// Create: one combined leader+data write.
OpScript FsdCreate(std::uint32_t data_pages, std::uint32_t data_permille,
                   const CpuParams& cpu);

// Open with the name table warm: pure CPU.
OpScript FsdOpenHit(const CpuParams& cpu);

// Read one page of an open, already-verified file.
OpScript FsdReadPage(std::uint32_t data_permille, const CpuParams& cpu);

// Delete: shadow free + cached tree update; no synchronous I/O.
OpScript FsdDelete(const CpuParams& cpu);

}  // namespace cedar::model

#endif  // CEDAR_MODEL_SCRIPTS_H_
