// Outside-in tracing for the traced run: an in-memory span recorder and the
// two decorators that put spans at the FSD stack's public boundaries.
//
//   workload op -> VolumeRouter     "op.<kind>" spans, opened by the executor
//   router -> each volume           "vol.<method>" spans (TracedVolume, an
//                                   fs::FileSystem handed to the router in
//                                   place of the bare core::Fsd)
//   Fsd -> device                   "dev.read" / "dev.write" spans
//                                   (TracedDevice, a sim::BlockDevice
//                                   handed to core::Fsd in place of the
//                                   bare SimDisk or DiskArray)
//
// Each span records its name, virtual and host start/end, its parent (the
// span open on the same thread when it began) and the workload op id. A
// device request issued by a thread with no open span — the commit or
// checkpoint daemon — becomes a background root, tagged with the FSD phase
// the DiskTracer attributes it to ("fsd.log_force", "fsd.ckpt", ...).
//
// Spans stay in per-thread buffers (no lock on the recording path) and are
// read only after every thread that records has been joined.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/sim/device.h"

namespace perfbench {

namespace core = cedar::core;
namespace fs = cedar::fs;
namespace sim = cedar::sim;

struct Span {
  std::uint32_t name = 0;    // interned span name
  std::uint32_t cls = 0;     // dev spans: interned DiskTracer op class
  std::uint32_t parent = 0;  // 1 + index of the parent in this thread; 0 = root
  std::uint32_t volume = 0;
  std::uint64_t op = 0;      // workload op id; 0 = outside any op
  std::uint64_t v0 = 0;      // virtual microseconds
  std::uint64_t v1 = 0;
  std::int64_t h0 = 0;       // host nanoseconds (steady clock)
  std::int64_t h1 = 0;
  std::uint64_t lba = 0;     // dev spans: request start and length
  std::uint32_t sectors = 0;
  std::uint32_t forces = 0;  // vol.force spans: fsd.forces observed
};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::deque<Span> spans;
  std::vector<std::uint32_t> stack;  // indices of open spans
  std::uint64_t op = 0;              // current workload op id
};

std::int64_t HostNowNs();

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNotRecorded = ~std::uint32_t{0};

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Recording is off until Enable(): set-up and warm-up leave no spans.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint32_t Intern(std::string_view name);
  std::string Name(std::uint32_t id) const;

  // Opens a span on the calling thread and returns its token
  // (kNotRecorded while disabled). Close() must run on the same thread.
  std::uint32_t Open(std::uint32_t name, std::uint64_t vnow,
                     std::uint32_t volume = 0);
  // Closes the innermost open span; returns it for extra fields, or
  // nullptr for kNotRecorded.
  Span* Close(std::uint32_t token, std::uint64_t vnow);
  // The calling thread's span for an open token (not kNotRecorded).
  Span& At(std::uint32_t token);
  void SetOp(std::uint64_t op);

  // Read after every recording thread has been joined.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }
  std::size_t SpanCount() const;
  // Tab-separated, one span per line, with a header.
  bool WriteTsv(const std::string& path) const;

 private:
  ThreadSpans& Local();

  const std::uint64_t id_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards threads_ registration and names_
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<std::string> names_;
};

// sim::BlockDevice decorator: one span per Read/Write, everything else
// forwarded unchanged.
class TracedDevice : public sim::BlockDevice {
 public:
  TracedDevice(sim::BlockDevice* inner, SpanRecorder* spans,
               std::uint32_t volume);

  const sim::DiskGeometry& geometry() const override {
    return inner_->geometry();
  }
  sim::VirtualClock& clock() override { return inner_->clock(); }
  sim::DiskStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  void set_tracer(cedar::obs::DiskTracer* tracer) override {
    inner_->set_tracer(tracer);
  }
  cedar::obs::DiskTracer* tracer() const override { return inner_->tracer(); }
  void AttachMetrics(cedar::obs::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }
  cedar::Status Read(sim::Lba start, std::span<std::uint8_t> out,
                     std::vector<std::uint32_t>* bad = nullptr) override;
  cedar::Status Write(sim::Lba start,
                      std::span<const std::uint8_t> data) override;
  void DamageSectors(sim::Lba start, std::uint32_t count) override {
    inner_->DamageSectors(start, count);
  }
  bool IsDamaged(sim::Lba lba) const override {
    return inner_->IsDamaged(lba);
  }
  void ArmCrash(const sim::CrashPlan& plan) override {
    inner_->ArmCrash(plan);
  }
  void CrashNow() override { inner_->CrashNow(); }
  bool crashed() const override { return inner_->crashed(); }
  void Reopen() override { inner_->Reopen(); }
  void BeginBatch() override { inner_->BeginBatch(); }
  void EndBatch() override { inner_->EndBatch(); }
  std::uint32_t HeadCylinder() const override {
    return inner_->HeadCylinder();
  }
  std::uint32_t spindle_count() const override {
    return inner_->spindle_count();
  }
  sim::DiskStats SpindleStats(std::uint32_t spindle) const override {
    return inner_->SpindleStats(spindle);
  }
  sim::DeviceSnapshot SnapshotDevice() const override {
    return inner_->SnapshotDevice();
  }
  void RestoreDevice(const sim::DeviceSnapshot& snapshot) override {
    inner_->RestoreDevice(snapshot);
  }
  bool DeviceStateEquals(const sim::DeviceSnapshot& snapshot) const override {
    return inner_->DeviceStateEquals(snapshot);
  }
  cedar::Status SaveImage(const std::string& path) const override {
    return inner_->SaveImage(path);
  }

 private:
  std::uint32_t OpenRequest(std::uint32_t name, sim::Lba start,
                            std::size_t bytes);

  sim::BlockDevice* inner_;
  SpanRecorder* spans_;
  std::uint32_t volume_;
  std::uint32_t read_name_;
  std::uint32_t write_name_;
};

// fs::FileSystem decorator over one volume's core::Fsd: one span per call.
// Stat and Tick are core::Fsd entry points outside fs::FileSystem; they are
// offered here too so the executor reaches them through the same boundary.
class TracedVolume : public fs::FileSystem {
 public:
  TracedVolume(core::Fsd* fsd, sim::VirtualClock* clock, SpanRecorder* spans,
               std::uint32_t volume);

  cedar::Result<fs::FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) override;
  cedar::Result<fs::FileHandle> Open(std::string_view name) override;
  cedar::Status Read(const fs::FileHandle& file, std::uint64_t offset,
                     std::span<std::uint8_t> out) override;
  cedar::Status Write(const fs::FileHandle& file, std::uint64_t offset,
                      std::span<const std::uint8_t> data) override;
  cedar::Status Extend(const fs::FileHandle& file,
                       std::uint64_t bytes) override;
  cedar::Status DeleteFile(std::string_view name) override;
  cedar::Result<std::vector<fs::FileInfo>> List(
      std::string_view prefix) override;
  cedar::Status Touch(std::string_view name) override;
  cedar::Status Rename(std::string_view from, std::string_view to) override;
  cedar::Status SetKeep(std::string_view name, std::uint16_t keep) override;
  cedar::Status Close(const fs::FileHandle& file) override;
  cedar::Status Force() override;
  cedar::Status Shutdown() override;
  cedar::Status Checkpoint() override;
  cedar::Result<std::uint64_t> RecoveryWindow() override;
  fs::MaintenanceStats Maintenance() override;
  fs::HealthStats Health() override;
  const cedar::obs::MetricsRegistry& Metrics() const override {
    return fsd_->Metrics();
  }

  cedar::Result<fs::FileInfo> Stat(std::string_view name);
  cedar::Status Tick();

 private:
  enum Method : std::uint8_t {
    kCreate, kOpen, kRead, kWrite, kExtend, kDelete, kList, kTouch, kRename,
    kSetKeep, kClose, kForce, kStat, kTick, kCheckpoint, kMethods
  };

  // Runs `call` inside a "vol.<method>" span.
  template <typename Fn>
  auto Traced(Method method, Fn&& call) {
    const std::uint32_t token =
        spans_->Open(names_[method], clock_->now(), volume_);
    auto result = call();
    spans_->Close(token, clock_->now());
    return result;
  }

  core::Fsd* fsd_;
  sim::VirtualClock* clock_;
  SpanRecorder* spans_;
  std::uint32_t volume_;
  const cedar::obs::Counter* forces_;
  std::uint32_t names_[kMethods] = {};
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
