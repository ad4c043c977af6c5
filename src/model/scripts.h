// Operation scripts for CFS and FSD, in the style of the paper's section-6
// example (the three-page CFS create). Each builder returns the expected
// step sequence of one operation under stated cache assumptions; the
// validation benchmark compares these predictions against simulator
// measurements of the real implementations.

#ifndef CEDAR_MODEL_SCRIPTS_H_
#define CEDAR_MODEL_SCRIPTS_H_

#include <cstdint>

#include "src/cfs/cfs.h"
#include "src/core/layout.h"
#include "src/model/disk_model.h"
#include "src/sim/geometry.h"

namespace cedar::model {

// CPU microseconds per operation and per sector of I/O: the calibration
// the simulated implementations charge, read from their default configs.
struct CpuParams {
  std::uint64_t cfs_per_op = cfs::CfsConfig{}.cpu_per_op;
  std::uint64_t cfs_per_sector = cfs::CfsConfig{}.cpu_per_sector_io;
  std::uint64_t fsd_per_op = core::FsdConfig::CpuModel{}.per_op;
  std::uint64_t fsd_per_sector = core::FsdConfig::CpuModel{}.per_sector_io;
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
