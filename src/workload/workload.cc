#include "src/workload/workload.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/workload/zipf.h"

namespace cedar::workload {

std::vector<std::uint8_t> Payload(std::uint64_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> out(size);
  Rng rng(seed);
  for (auto& byte : out) {
    byte = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

std::uint64_t SizeDistribution::Sample(Rng& rng) const {
  if (rng.Chance(0.5)) {
    return rng.Between(128, 4000);
  }
  // Exponential tail: -mean * ln(U), floored at 4000, capped at 512 KB.
  const double u = rng.NextDouble();
  const double draw = -large_mean_ * std::log(1.0 - u);
  const double size = std::max(4000.0, draw);
  return static_cast<std::uint64_t>(std::min(size, 512.0 * 1024));
}

Result<std::uint64_t> PopulateVolume(fs::FileSystem* file_system,
                                     std::string_view prefix,
                                     std::uint32_t count,
                                     const SizeDistribution& sizes,
                                     Rng& rng) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t size = sizes.Sample(rng);
    const std::string name =
        std::string(prefix) + "f" + std::to_string(i) + ".db";
    CEDAR_RETURN_IF_ERROR(
        file_system->CreateFile(name, Payload(size, i)).status());
    total += size;
  }
  return total;
}

Status MakeDoSetup(fs::FileSystem* file_system, std::string_view prefix,
                   const MakeDoConfig& config, Rng& rng) {
  for (std::uint32_t m = 0; m < config.modules; ++m) {
    const std::string base = std::string(prefix) + "M" + std::to_string(m);
    CEDAR_RETURN_IF_ERROR(
        file_system
            ->CreateFile(base + ".mesa",
                         Payload(config.source_bytes, rng.Next()))
            .status());
    CEDAR_RETURN_IF_ERROR(
        file_system
            ->CreateFile(base + ".bcd",
                         Payload(config.object_bytes, rng.Next()))
            .status());
  }
  return OkStatus();
}

Result<MakeDoResult> MakeDoBuild(fs::FileSystem* file_system,
                                 std::string_view prefix,
                                 const MakeDoConfig& config, Rng& rng) {
  MakeDoResult result;

  // Phase 1: scan the module tree (list with properties = the dependency
  // analysis MakeDo performs).
  CEDAR_ASSIGN_OR_RETURN(std::vector<fs::FileInfo> files,
                         file_system->List(prefix));
  result.modules_scanned = static_cast<std::uint32_t>(files.size() / 2);

  // Phase 1.5: dependency extraction — read the interface prefix of every
  // source and object file. This data I/O hits both systems equally and is
  // why the paper's overall MakeDo ratio (1.52x) is much smaller than the
  // pure-metadata ratios.
  // Cedar programs read through the File Package page at a time, so each
  // page is a separate request.
  auto read_pages = [&](const fs::FileHandle& handle, std::uint64_t bytes) {
    std::vector<std::uint8_t> page(512);
    for (std::uint64_t off = 0; off + 512 <= bytes; off += 512) {
      CEDAR_RETURN_IF_ERROR(file_system->Read(handle, off, page));
    }
    return OkStatus();
  };
  for (const fs::FileInfo& info : files) {
    CEDAR_ASSIGN_OR_RETURN(fs::FileHandle handle,
                           file_system->Open(info.name));
    CEDAR_RETURN_IF_ERROR(
        read_pages(handle, std::min<std::uint64_t>(info.byte_size, 2048)));
  }

  // Phase 2: rebuild the stale modules.
  for (std::uint32_t m = 0; m < config.modules; ++m) {
    if (!rng.Chance(config.stale_fraction)) {
      continue;
    }
    const std::string base = std::string(prefix) + "M" + std::to_string(m);
    // Read the whole source, page at a time (the compiler's access pattern).
    CEDAR_ASSIGN_OR_RETURN(fs::FileHandle source,
                           file_system->Open(base + ".mesa"));
    CEDAR_RETURN_IF_ERROR(read_pages(source, source.byte_size));
    // Touch it (MakeDo records the dependency check).
    CEDAR_RETURN_IF_ERROR(file_system->Touch(base + ".mesa"));
    // Emit a new object version and drop the old one.
    CEDAR_RETURN_IF_ERROR(
        file_system
            ->CreateFile(base + ".bcd",
                         Payload(config.object_bytes, rng.Next()))
            .status());
    CEDAR_RETURN_IF_ERROR(file_system->DeleteFile(base + ".bcd"));
    // (The delete removes the newest version on Cedar; re-create so the
    // result of the build is the fresh object.)
    CEDAR_RETURN_IF_ERROR(
        file_system
            ->CreateFile(base + ".bcd",
                         Payload(config.object_bytes, rng.Next()))
            .status());
    ++result.modules_rebuilt;
  }
  return result;
}

Status BulkUpdate(fs::FileSystem* file_system, std::string_view prefix,
                  const BulkUpdateConfig& config, Rng& rng,
                  const std::function<Status(sim::Micros)>& advance) {
  // Ensure the subdirectory exists.
  for (std::uint32_t i = 0; i < config.files; ++i) {
    const std::string name =
        std::string(prefix) + "doc" + std::to_string(i) + ".tioga";
    CEDAR_RETURN_IF_ERROR(
        file_system->CreateFile(name, Payload(2000, i)).status());
    CEDAR_RETURN_IF_ERROR(advance(config.think_time));
  }
  for (std::uint32_t round = 0; round < config.rounds; ++round) {
    for (std::uint32_t t = 0; t < config.touches_per_round; ++t) {
      const std::string name = std::string(prefix) + "doc" +
                               std::to_string(rng.Below(config.files)) +
                               ".tioga";
      CEDAR_RETURN_IF_ERROR(file_system->Touch(name));
      CEDAR_RETURN_IF_ERROR(advance(config.think_time));
    }
    for (std::uint32_t w = 0; w < config.rewrites_per_round; ++w) {
      const std::string name = std::string(prefix) + "doc" +
                               std::to_string(rng.Below(config.files)) +
                               ".tioga";
      CEDAR_RETURN_IF_ERROR(
          file_system->CreateFile(name, Payload(2000, rng.Next())).status());
      CEDAR_RETURN_IF_ERROR(advance(config.think_time));
    }
  }
  return OkStatus();
}

std::string TenantPrefix(std::uint16_t tenant) {
  return std::string("t").append(std::to_string(tenant)) + "/";
}

Result<std::uint64_t> RunTenantMix(
    fs::FileSystem* file_system, const TenantMix& mix,
    const std::function<Status(const std::string& name, sim::Micros think)>&
        think,
    std::vector<TraceEntry>* trace, const sim::VirtualClock* clock) {
  CEDAR_CHECK(trace == nullptr || clock != nullptr);
  if (trace != nullptr && mix.rename_slot) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "a trace has no rename: record the mix without "
                     "rename_slot");
  }
  // Appends one entry, stamped after the op it describes returned.
  auto record = [&](TraceOp op, std::uint16_t tenant, const std::string& name,
                    std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                    std::uint64_t arg2 = 0) {
    if (trace != nullptr) {
      trace->push_back({op, name, arg0, arg1, arg2, tenant, clock->now()});
    }
  };
  Rng rng(mix.seed);
  const ZipfSampler zipf(mix.files_per_tenant, mix.zipf_s);
  std::vector<std::uint8_t> payload;
  auto fresh = [&](std::uint64_t bytes) {
    payload.resize(bytes);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
  };
  std::uint64_t updates = 0;
  for (std::uint32_t i = 0; i < mix.ops; ++i) {
    const auto tenant = static_cast<std::uint16_t>(i % mix.tenants);
    const std::uint32_t rank = zipf.Sample(rng);
    const std::string name =
        TenantPrefix(tenant) + "f" + std::to_string(rank) + ".db";
    // A touch or delete that misses is part of the mix, and of its trace.
    auto touch = [&] {
      const Status touched = file_system->Touch(name);
      if (touched.ok() || touched.code() == ErrorCode::kNotFound) {
        record(TraceOp::kTouch, tenant, name);
      }
    };
    switch (rng.Below(8)) {
      case 0:
      case 1:
        fresh(rng.Between(256, 4096));
        CEDAR_RETURN_IF_ERROR(
            file_system->CreateFile(name, payload).status());
        record(TraceOp::kCreate, tenant, name, payload.size(),
               Crc32(payload));
        ++updates;
        break;
      case 2:
      case 3:
      case 4: {
        auto handle = file_system->Open(name);
        record(TraceOp::kOpen, tenant, name);
        if (handle.ok() && handle->byte_size > 0) {
          payload.resize(std::min<std::uint64_t>(handle->byte_size, 4096));
          CEDAR_RETURN_IF_ERROR(file_system->Read(*handle, 0, payload));
          record(TraceOp::kRead, tenant, name, 0, payload.size());
          CEDAR_RETURN_IF_ERROR(file_system->Close(*handle));
          record(TraceOp::kClose, tenant, name);
        }
        break;
      }
      case 5: {
        auto handle = file_system->Open(name);
        record(TraceOp::kOpen, tenant, name);
        if (handle.ok() && handle->byte_size > 0) {
          fresh(std::min<std::uint64_t>(handle->byte_size, 512));
          CEDAR_RETURN_IF_ERROR(file_system->Write(*handle, 0, payload));
          record(TraceOp::kWrite, tenant, name, 0, payload.size(),
                 Crc32(payload));
          CEDAR_RETURN_IF_ERROR(file_system->Close(*handle));
          record(TraceOp::kClose, tenant, name);
          ++updates;
        }
        break;
      }
      case 6:
        if (mix.rename_slot) {
          const std::string to =
              TenantPrefix(tenant) + "mv" + std::to_string(rank) + ".db";
          if (file_system->Rename(name, to).ok()) {
            (void)file_system->Rename(to, name);  // back for later rounds
            updates += 2;
          }
        } else {
          touch();
        }
        break;
      default:
        if (!rng.Chance(0.25)) {
          touch();
        } else {
          const Status deleted = file_system->DeleteFile(name);
          if (deleted.ok() || deleted.code() == ErrorCode::kNotFound) {
            record(TraceOp::kDelete, tenant, name);
          }
          updates += deleted.ok() ? 1 : 0;
        }
        break;
    }
    CEDAR_RETURN_IF_ERROR(think(name, rng.Between(1, 15) * sim::kMillisecond));
  }
  CEDAR_RETURN_IF_ERROR(file_system->Force());
  record(TraceOp::kForce, 0, "");
  return updates;
}

}  // namespace cedar::workload
