#include "src/sim/scheduler.h"

#include <algorithm>

#include "src/util/check.h"

namespace cedar::sim {

IoScheduler::IoScheduler(BlockDevice* disk, bool reorder,
                         std::uint32_t max_transfer_sectors)
    : disk_(disk),
      reorder_(reorder),
      max_transfer_sectors_(max_transfer_sectors) {
  CEDAR_CHECK(disk != nullptr);
  CEDAR_CHECK(max_transfer_sectors >= 1);
}

void IoScheduler::QueueWrite(Lba lba, std::span<const std::uint8_t> data) {
  CEDAR_CHECK(!data.empty() && data.size() % kSectorSize == 0);
  Request request;
  request.lba = lba;
  request.sectors = static_cast<std::uint32_t>(data.size() / kSectorSize);
  request.is_write = true;
  request.write_data = data;
  requests_.push_back(request);
}

void IoScheduler::QueueRead(Lba lba, std::span<std::uint8_t> out,
                            std::vector<std::uint32_t>* bad) {
  CEDAR_CHECK(!out.empty() && out.size() % kSectorSize == 0);
  Request request;
  request.lba = lba;
  request.sectors = static_cast<std::uint32_t>(out.size() / kSectorSize);
  request.read_out = out;
  request.bad = bad;
  requests_.push_back(request);
}

std::vector<std::size_t> IoScheduler::ServiceOrder() const {
  std::vector<std::size_t> order(requests_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  if (!reorder_) {
    return order;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requests_[a].lba < requests_[b].lba;
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Request& prev = requests_[order[i - 1]];
    const Request& cur = requests_[order[i]];
    CEDAR_CHECK(cur.lba >= prev.lba + prev.sectors);  // no overlaps
  }
  // C-SCAN: one ascending sweep starting at the head's current cylinder,
  // wrapping once to pick up the requests it already passed.
  const Lba head_lba =
      disk_->geometry().CylinderStart(disk_->HeadCylinder());
  const auto pivot = std::find_if(
      order.begin(), order.end(),
      [&](std::size_t i) { return requests_[i].lba >= head_lba; });
  std::rotate(order.begin(), pivot, order.end());
  return order;
}

std::size_t IoScheduler::RunEnd(const std::vector<std::size_t>& order,
                                std::size_t i, std::uint32_t* sectors) const {
  const Request& first = requests_[order[i]];
  std::uint32_t run = first.sectors;
  std::size_t j = i + 1;
  for (; reorder_ && j < order.size(); ++j) {
    const Request& next = requests_[order[j]];
    if (next.lba != first.lba + run || next.is_write != first.is_write ||
        run + next.sectors > max_transfer_sectors_) {
      break;
    }
    run += next.sectors;
  }
  if (sectors != nullptr) {
    *sectors = run;
  }
  return j;
}

std::vector<std::pair<Lba, std::uint32_t>> IoScheduler::PlanSegments() const {
  const std::vector<std::size_t> order = ServiceOrder();
  std::vector<std::pair<Lba, std::uint32_t>> segments;
  std::size_t i = 0;
  while (i < order.size()) {
    std::uint32_t sectors = 0;
    const std::size_t j = RunEnd(order, i, &sectors);
    segments.emplace_back(requests_[order[i]].lba, sectors);
    i = j;
  }
  return segments;
}

Status IoScheduler::IssueRun(std::size_t first, std::size_t count,
                             const std::vector<std::size_t>& order,
                             BatchStats* stats) {
  const Request& head = requests_[order[first]];
  std::uint32_t sectors = 0;
  for (std::size_t k = 0; k < count; ++k) {
    sectors += requests_[order[first + k]].sectors;
  }
  if (stats != nullptr) {
    ++stats->device_requests;
    stats->sectors_moved += sectors;
  }
  if (head.is_write) {
    if (count == 1) {
      return disk_->Write(head.lba, head.write_data);
    }
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(sectors) *
                                  kSectorSize);
    std::size_t pos = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const Request& request = requests_[order[first + k]];
      std::copy(request.write_data.begin(), request.write_data.end(),
                buf.begin() + pos);
      pos += request.write_data.size();
    }
    return disk_->Write(head.lba, buf);
  }
  // Coalesced read: transfer the whole run tolerantly, scatter the data
  // back, and remap damaged-sector indices to each request's frame of
  // reference. A request that did not ask for damage reporting keeps the
  // fail-on-damage semantics of a direct read.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(sectors) *
                                kSectorSize);
  std::vector<std::uint32_t> bad;
  CEDAR_RETURN_IF_ERROR(disk_->Read(head.lba, buf, &bad));
  std::size_t pos = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const Request& request = requests_[order[first + k]];
    std::copy(buf.begin() + pos,
              buf.begin() + pos +
                  static_cast<std::size_t>(request.sectors) * kSectorSize,
              request.read_out.begin());
    pos += static_cast<std::size_t>(request.sectors) * kSectorSize;
  }
  Status status = OkStatus();
  for (std::uint32_t index : bad) {
    std::uint32_t offset = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const Request& request = requests_[order[first + k]];
      if (index < offset + request.sectors) {
        if (request.bad != nullptr) {
          request.bad->push_back(index - offset);
        } else if (status.ok()) {
          status = MakeError(ErrorCode::kSectorDamaged,
                             "damaged sector at lba " +
                                 std::to_string(head.lba + index));
        }
        break;
      }
      offset += request.sectors;
    }
  }
  return status;
}

Status IoScheduler::Flush(BatchStats* stats) {
  const DiskStats before = disk_->stats();
  BatchStats batch;
  batch.requests_queued = requests_.size();

  // Tag everything issued below with one batch id: requests inside a batch
  // have no mutual ordering guarantee at the device, which is what the
  // crash harness's reorder variants exploit.
  disk_->BeginBatch();
  const std::vector<std::size_t> order = ServiceOrder();
  Status status = OkStatus();
  std::size_t i = 0;
  while (i < order.size() && status.ok()) {
    const std::size_t j = RunEnd(order, i, nullptr);
    status = IssueRun(i, j - i, order, &batch);
    i = j;
  }
  disk_->EndBatch();
  requests_.clear();

  batch.requests_merged = batch.requests_queued - batch.device_requests;
  const DiskStats& after = disk_->stats();
  batch.seek_us = after.seek_us - before.seek_us;
  batch.rotational_us = after.rotational_us - before.rotational_us;
  batch.transfer_us = after.transfer_us - before.transfer_us;
  batch.busy_us = after.busy_us - before.busy_us;
  if (stats != nullptr) {
    stats->Accumulate(batch);
  }
  return status;
}

}  // namespace cedar::sim
