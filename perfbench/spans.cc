#include "perfbench/spans.h"

#include <chrono>
#include <cstdio>

#include "src/obs/trace.h"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

// The calling thread's buffer for the recorder with id `owner`; a thread
// that outlives one recorder registers afresh with the next.
struct TlsSlot {
  std::uint64_t owner = 0;
  ThreadSpans* spans = nullptr;
};
thread_local TlsSlot tls_slot;

}  // namespace

std::int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : id_(next_recorder_id.fetch_add(1)) {
  Intern("(none)");
}

std::uint32_t SpanRecorder::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::string SpanRecorder::Name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? names_[id] : std::string("?");
}

ThreadSpans& SpanRecorder::Local() {
  if (tls_slot.owner != id_) {
    auto spans = std::make_unique<ThreadSpans>();
    std::lock_guard<std::mutex> lock(mu_);
    spans->thread = static_cast<std::uint32_t>(threads_.size());
    tls_slot.owner = id_;
    tls_slot.spans = spans.get();
    threads_.push_back(std::move(spans));
  }
  return *tls_slot.spans;
}

std::uint32_t SpanRecorder::Open(std::uint32_t name, std::uint64_t vnow,
                                 std::uint32_t volume) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return kNotRecorded;
  }
  ThreadSpans& local = Local();
  Span span;
  span.name = name;
  span.volume = volume;
  span.parent = local.stack.empty() ? 0 : local.stack.back() + 1;
  span.op = local.op;
  span.v0 = vnow;
  span.h0 = HostNowNs();
  const auto index = static_cast<std::uint32_t>(local.spans.size());
  local.spans.push_back(span);
  local.stack.push_back(index);
  return index;
}

Span* SpanRecorder::Close(std::uint32_t token, std::uint64_t vnow) {
  if (token == kNotRecorded) {
    return nullptr;
  }
  const std::int64_t now = HostNowNs();
  ThreadSpans& local = Local();
  Span& span = local.spans[token];
  span.v1 = vnow;
  span.h1 = now;
  local.stack.pop_back();
  return &span;
}

Span& SpanRecorder::At(std::uint32_t token) { return Local().spans[token]; }

void SpanRecorder::SetOp(std::uint64_t op) { Local().op = op; }

std::size_t SpanRecorder::SpanCount() const {
  std::size_t n = 0;
  for (const auto& thread : threads_) {
    n += thread->spans.size();
  }
  return n;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "thread\tindex\tparent\top\tname\tclass\tvolume\tv0_us\tv1_us"
               "\th0_ns\th1_ns\tlba\tsectors\tforces\n");
  for (const auto& thread : threads_) {
    std::uint32_t index = 0;
    for (const Span& s : thread->spans) {
      std::fprintf(out,
                   "%u\t%u\t%u\t%llu\t%s\t%s\t%u\t%llu\t%llu\t%lld\t%lld\t%llu"
                   "\t%u\t%u\n",
                   thread->thread, index++, s.parent,
                   static_cast<unsigned long long>(s.op),
                   names_[s.name].c_str(), names_[s.cls].c_str(), s.volume,
                   static_cast<unsigned long long>(s.v0),
                   static_cast<unsigned long long>(s.v1),
                   static_cast<long long>(s.h0), static_cast<long long>(s.h1),
                   static_cast<unsigned long long>(s.lba), s.sectors,
                   s.forces);
    }
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------

TracedDevice::TracedDevice(sim::BlockDevice* inner, SpanRecorder* spans,
                           std::uint32_t volume)
    : inner_(inner),
      spans_(spans),
      volume_(volume),
      read_name_(spans->Intern("dev.read")),
      write_name_(spans->Intern("dev.write")) {}

std::uint32_t TracedDevice::OpenRequest(std::uint32_t name, sim::Lba start,
                                        std::size_t bytes) {
  const std::uint32_t token =
      spans_->Open(name, inner_->clock().now(), volume_);
  if (token != SpanRecorder::kNotRecorded) {
    // The FSD phase this request belongs to; for a background root (a
    // daemon thread with no open span) it is the only attribution.
    const cedar::obs::DiskTracer* tracer = inner_->tracer();
    Span& span = spans_->At(token);
    span.cls = tracer == nullptr ? 0 : spans_->Intern(tracer->CurrentOp());
    span.lba = start;
    span.sectors = static_cast<std::uint32_t>(bytes / sim::kSectorSize);
  }
  return token;
}

cedar::Status TracedDevice::Read(sim::Lba start, std::span<std::uint8_t> out,
                                 std::vector<std::uint32_t>* bad) {
  const std::uint32_t token = OpenRequest(read_name_, start, out.size());
  cedar::Status status = inner_->Read(start, out, bad);
  spans_->Close(token, inner_->clock().now());
  return status;
}

cedar::Status TracedDevice::Write(sim::Lba start,
                                  std::span<const std::uint8_t> data) {
  const std::uint32_t token = OpenRequest(write_name_, start, data.size());
  cedar::Status status = inner_->Write(start, data);
  spans_->Close(token, inner_->clock().now());
  return status;
}

// ---------------------------------------------------------------------------

TracedVolume::TracedVolume(core::Fsd* fsd, sim::VirtualClock* clock,
                           SpanRecorder* spans, std::uint32_t volume)
    : fsd_(fsd),
      clock_(clock),
      spans_(spans),
      volume_(volume),
      forces_(fsd->Metrics().FindCounter("fsd.forces")) {
  static constexpr const char* kNames[kMethods] = {
      "vol.create", "vol.open",   "vol.read",    "vol.write", "vol.extend",
      "vol.delete", "vol.list",   "vol.touch",   "vol.rename", "vol.setkeep",
      "vol.close",  "vol.force",  "vol.stat",    "vol.tick",
      "vol.checkpoint"};
  for (int m = 0; m < kMethods; ++m) {
    names_[m] = spans->Intern(kNames[m]);
  }
}

cedar::Result<fs::FileUid> TracedVolume::CreateFile(
    std::string_view name, std::span<const std::uint8_t> contents) {
  return Traced(kCreate, [&] { return fsd_->CreateFile(name, contents); });
}
cedar::Result<fs::FileHandle> TracedVolume::Open(std::string_view name) {
  return Traced(kOpen, [&] { return fsd_->Open(name); });
}
cedar::Status TracedVolume::Read(const fs::FileHandle& file,
                                 std::uint64_t offset,
                                 std::span<std::uint8_t> out) {
  return Traced(kRead, [&] { return fsd_->Read(file, offset, out); });
}
cedar::Status TracedVolume::Write(const fs::FileHandle& file,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> data) {
  return Traced(kWrite, [&] { return fsd_->Write(file, offset, data); });
}
cedar::Status TracedVolume::Extend(const fs::FileHandle& file,
                                   std::uint64_t bytes) {
  return Traced(kExtend, [&] { return fsd_->Extend(file, bytes); });
}
cedar::Status TracedVolume::DeleteFile(std::string_view name) {
  return Traced(kDelete, [&] { return fsd_->DeleteFile(name); });
}
cedar::Result<std::vector<fs::FileInfo>> TracedVolume::List(
    std::string_view prefix) {
  return Traced(kList, [&] { return fsd_->List(prefix); });
}
cedar::Status TracedVolume::Touch(std::string_view name) {
  return Traced(kTouch, [&] { return fsd_->Touch(name); });
}
cedar::Status TracedVolume::Rename(std::string_view from,
                                   std::string_view to) {
  return Traced(kRename, [&] { return fsd_->Rename(from, to); });
}
cedar::Status TracedVolume::SetKeep(std::string_view name,
                                    std::uint16_t keep) {
  return Traced(kSetKeep, [&] { return fsd_->SetKeep(name, keep); });
}
cedar::Status TracedVolume::Close(const fs::FileHandle& file) {
  return Traced(kClose, [&] { return fsd_->Close(file); });
}
cedar::Status TracedVolume::Force() {
  // Counts the log forces that completed inside this call, so router-issued
  // forces (the cross-volume rename's two) can be told from client ones.
  const std::uint32_t token =
      spans_->Open(names_[kForce], clock_->now(), volume_);
  const std::uint64_t before = forces_->value();
  cedar::Status status = fsd_->Force();
  const std::uint64_t after = forces_->value();
  if (Span* span = spans_->Close(token, clock_->now())) {
    span->forces = static_cast<std::uint32_t>(after - before);
  }
  return status;
}
cedar::Status TracedVolume::Shutdown() { return fsd_->Shutdown(); }
cedar::Status TracedVolume::Checkpoint() {
  return Traced(kCheckpoint, [&] { return fsd_->Checkpoint(); });
}
cedar::Result<std::uint64_t> TracedVolume::RecoveryWindow() {
  return fsd_->RecoveryWindow();
}
fs::MaintenanceStats TracedVolume::Maintenance() {
  return fsd_->Maintenance();
}
fs::HealthStats TracedVolume::Health() { return fsd_->Health(); }
cedar::Result<fs::FileInfo> TracedVolume::Stat(std::string_view name) {
  return Traced(kStat, [&] { return fsd_->Stat(name); });
}
cedar::Status TracedVolume::Tick() {
  return Traced(kTick, [&] { return fsd_->Tick(); });
}

}  // namespace perfbench
