// IoScheduler: batched, elevator-ordered request submission for SimDisk.
//
// The paper's disk model (section 4) says seeks and lost revolutions
// dominate, so the win from writeback is realized only if the many small
// home writes a flush produces are issued as a few well-placed transfers.
// The scheduler accepts a batch of per-page (or multi-sector) read/write
// requests, orders them into a single C-SCAN sweep by LBA starting at the
// head's current cylinder, coalesces requests at adjacent LBAs into one
// multi-sector transfer, and submits the result to the disk.
//
// The caller controls batch boundaries, which is how correctness rules are
// enforced: FSD flushes all name-table primaries as one batch and all
// replicas as a second batch, so coalescing can never merge a page's two
// copies into one transfer (the "same data is never written to adjacent
// sectors" rule survives, and the primary-written-first repair invariant
// holds batch-wide instead of page-wide).
//
// Requests within one batch must not overlap. Queued spans are borrowed:
// they must stay valid until Flush() returns.
//
// Thread safety: none — an IoScheduler is a stack-confined batch builder,
// created, filled, and flushed by one thread while that thread holds the
// owning file system's core lock (the underlying SimDisk serializes the
// actual transfers). It must never be shared between threads.

#ifndef CEDAR_SIM_SCHEDULER_H_
#define CEDAR_SIM_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/device.h"
#include "src/sim/geometry.h"
#include "src/util/status.h"

namespace cedar::sim {

// What one Flush() did, for counters and benchmarks.
struct BatchStats {
  std::uint64_t requests_queued = 0;   // requests handed to the scheduler
  std::uint64_t device_requests = 0;   // transfers actually issued
  std::uint64_t requests_merged = 0;   // queued - issued
  std::uint64_t sectors_moved = 0;
  std::uint64_t seek_us = 0;
  std::uint64_t rotational_us = 0;
  std::uint64_t transfer_us = 0;
  std::uint64_t busy_us = 0;

  void Accumulate(const BatchStats& other) {
    requests_queued += other.requests_queued;
    device_requests += other.device_requests;
    requests_merged += other.requests_merged;
    sectors_moved += other.sectors_moved;
    seek_us += other.seek_us;
    rotational_us += other.rotational_us;
    transfer_us += other.transfer_us;
    busy_us += other.busy_us;
  }
};

class IoScheduler {
 public:
  // With `reorder` false the scheduler degenerates to issuing one device
  // request per queued request in submission order — the unbatched
  // baseline the benchmarks compare against.
  explicit IoScheduler(BlockDevice* disk, bool reorder = true,
                       std::uint32_t max_transfer_sectors = 1024);

  // Queues a write of data.size()/kSectorSize sectors at `lba`.
  void QueueWrite(Lba lba, std::span<const std::uint8_t> data);

  // Queues a read into `out`. Damaged sectors are zero-filled and their
  // indices (relative to `lba`) appended to `bad` (which may be null, in
  // which case damage is silently tolerated) — the recovery-read semantics
  // of SimDisk::Read with a non-null bad list.
  void QueueRead(Lba lba, std::span<std::uint8_t> out,
                 std::vector<std::uint32_t>* bad = nullptr);

  std::size_t pending() const { return requests_.size(); }

  // The coalesced (lba, sectors) segments Flush() would issue, in service
  // order. Exposed for tests and planning; does not touch the device.
  std::vector<std::pair<Lba, std::uint32_t>> PlanSegments() const;

  // Sorts, coalesces, and issues everything queued, then clears the queue.
  // On error the queue is still cleared; some requests may not have reached
  // the device (e.g. after a crash).
  Status Flush(BatchStats* stats = nullptr);

 private:
  struct Request {
    Lba lba = 0;
    std::uint32_t sectors = 0;
    bool is_write = false;
    std::span<const std::uint8_t> write_data;
    std::span<std::uint8_t> read_out;
    std::vector<std::uint32_t>* bad = nullptr;
  };

  // Indices into requests_ in C-SCAN service order (or submission order
  // when reorder is off).
  std::vector<std::size_t> ServiceOrder() const;
  // One past the last request that merges with order[i] into one device
  // transfer (contiguous, same direction, within the transfer cap); the
  // transfer's sectors go to *sectors when non-null.
  std::size_t RunEnd(const std::vector<std::size_t>& order, std::size_t i,
                     std::uint32_t* sectors) const;
  Status IssueRun(std::size_t first, std::size_t count,
                  const std::vector<std::size_t>& order, BatchStats* stats);

  BlockDevice* disk_;
  bool reorder_;
  std::uint32_t max_transfer_sectors_;
  std::vector<Request> requests_;
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_SCHEDULER_H_
