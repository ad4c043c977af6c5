// Structured disk-request tracing with FS-operation attribution.
//
// Every request the simulated disk services is recorded as one TraceEvent:
// what was transferred (LBA, sector count, read/write/label), how the disk
// spent its time (seek / rotation / transfer / controller microseconds from
// the timing model), and which file-system operation caused it. Attribution
// uses a scoped op-context stack: a public FS entry point pushes a class
// name like "fsd.create" (via ScopedOp), nested internal phases push their
// own ("fsd.log_force", "fsd.flush_third"), and each disk request is tagged
// with the innermost context at issue time.
//
// The tracer keeps two things:
//   - a bounded ring of recent events (overwrite-oldest) for inspection and
//     dumping — binary (tools/tracedump) or JSONL;
//   - per-op-class aggregates over ALL events ever recorded (not just the
//     ring), which is what the model-validation harness and benches read.
//
// This is the measurement half of the paper's section 4: the analytic model
// predicts per-operation disk time, the tracer measures it.
//
// Thread safety: the op-context stack is genuinely thread-local storage
// (keyed by a per-tracer-incarnation id), so concurrent client threads each
// carry their own attribution context — a request issued by the group-commit
// daemon is tagged "fsd.log_force" even while client threads are inside
// "fsd.create" — and pushing/popping context takes no lock once a name has
// been seen (a lock-free index finds it; only a new name is interned under
// the mutex). The ring, the name table, and the aggregates are guarded by
// one internal mutex;
// Record() is called with the disk's lock held, making the tracer a leaf in
// the locking hierarchy (see DESIGN.md section 4e/4f). Moves and Reset()
// issue a fresh incarnation id, which abandons every thread's old stack
// without touching other threads' storage.

#ifndef CEDAR_OBS_TRACE_H_
#define CEDAR_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cedar::obs {

enum class DiskOpKind : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kLabelRead = 2,
  kLabelWrite = 3,
};

std::string_view DiskOpKindName(DiskOpKind kind);

struct TraceEvent {
  std::uint64_t seq = 0;       // monotonically increasing event number
  std::uint64_t start_us = 0;  // virtual time when the request was issued
  std::uint64_t lba = 0;       // 64-bit: striped arrays exceed 4 G sectors
  std::uint32_t sectors = 0;
  // Which spindle serviced the request: member index within a DiskArray,
  // 0 for a plain single-spindle SimDisk. Multi-spindle rigs share one
  // tracer across members, so this column attributes each event in a dump
  // to its spindle (per-spindle busy time comes from
  // BlockDevice::SpindleStats).
  std::uint32_t spindle = 0;
  DiskOpKind kind = DiskOpKind::kRead;
  // Service-time breakdown from the disk timing model.
  std::uint64_t seek_us = 0;
  std::uint64_t rotational_us = 0;
  std::uint64_t transfer_us = 0;
  std::uint64_t controller_us = 0;
  // Index into the tracer's op-name table; 0 is the reserved "(none)"
  // context for requests issued outside any scoped FS operation.
  std::uint32_t op_id = 0;
  // Outermost context of the issuing thread (the root of its ScopedOp
  // stack). Lets an embedding layer — the workload replayer tags each
  // driver thread with a tenant scope before calling into the FS — claim
  // disk time that inner "fsd.*" scopes would otherwise win. Equal to
  // op_id when the stack has one frame; 0 outside any scope.
  std::uint32_t root_id = 0;
  // Scheduler-batch identity: requests issued inside one IoScheduler::Flush
  // share a nonzero id (unique per disk); 0 means the request was issued
  // directly, outside any batch. Requests within one batch have no ordering
  // guarantee against each other — the crash harness uses this to enumerate
  // device-level reorderings a power failure could expose.
  std::uint32_t batch = 0;

  std::uint64_t TotalUs() const {
    return seek_us + rotational_us + transfer_us + controller_us;
  }
};

// Running totals for one op class, accumulated over every recorded event.
struct OpClassAggregate {
  std::uint64_t requests = 0;
  std::uint64_t sectors = 0;
  std::uint64_t seek_us = 0;
  std::uint64_t rotational_us = 0;
  std::uint64_t transfer_us = 0;
  std::uint64_t controller_us = 0;

  std::uint64_t TotalUs() const {
    return seek_us + rotational_us + transfer_us + controller_us;
  }
  OpClassAggregate operator-(const OpClassAggregate& rhs) const {
    OpClassAggregate d;
    d.requests = requests - rhs.requests;
    d.sectors = sectors - rhs.sectors;
    d.seek_us = seek_us - rhs.seek_us;
    d.rotational_us = rotational_us - rhs.rotational_us;
    d.transfer_us = transfer_us - rhs.transfer_us;
    d.controller_us = controller_us - rhs.controller_us;
    return d;
  }
};

class DiskTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit DiskTracer(std::size_t capacity = kDefaultCapacity);
  DiskTracer(const DiskTracer&) = delete;
  DiskTracer& operator=(const DiskTracer&) = delete;
  // Moves are for construction-time plumbing (LoadBinary/ParseBinary return
  // by value); the source must not be in concurrent use.
  DiskTracer(DiskTracer&& other) noexcept;
  DiskTracer& operator=(DiskTracer&& other) noexcept;

  // --- op-context stack (use ScopedOp rather than calling these directly).
  // Each thread has its own stack; Push/Pop affect only the caller's.
  void PushOp(std::string_view name);
  void PopOp();
  // Innermost active context of the calling thread, or "(none)".
  std::string_view CurrentOp() const;

  // Records one serviced disk request under the current op context. `batch`
  // is the scheduler-batch id (0 = issued outside any batch); `spindle` is
  // the servicing spindle (array member index, 0 for a single disk).
  void Record(std::uint64_t lba, std::uint32_t sectors, DiskOpKind kind,
              std::uint64_t start_us, std::uint64_t seek_us,
              std::uint64_t rotational_us, std::uint64_t transfer_us,
              std::uint64_t controller_us, std::uint32_t batch = 0,
              std::uint32_t spindle = 0);

  // Events still in the ring, oldest first.
  std::vector<TraceEvent> Events() const;
  std::string_view OpName(std::uint32_t op_id) const;
  std::uint64_t total_events() const;
  std::uint64_t dropped_events() const;

  // Aggregate for one op class (zeros if never seen). Aggregates cover all
  // events since construction/Reset, including ones evicted from the ring.
  OpClassAggregate AggregateFor(std::string_view op_class) const;
  // All op classes with at least one request, sorted by name.
  std::vector<std::pair<std::string, OpClassAggregate>> Aggregates() const;
  // Same, keyed by the ROOT (outermost) context instead of the innermost.
  // This is how the workload replayer splits disk time per tenant: the
  // replayer's "wl.t<k>" root scope owns every request a driver thread
  // issues, regardless of which internal "fsd.*" phase issued it. Daemon
  // threads (group commit, checkpoint) have their own roots.
  OpClassAggregate RootAggregateFor(std::string_view op_class) const;
  std::vector<std::pair<std::string, OpClassAggregate>> RootAggregates() const;

  // Serialization. The binary format is versioned ("CEDTRC04": 64-bit LBA +
  // spindle column; any other magic is rejected with kCorruptMetadata) and
  // holds the op-name table plus the ring contents; LoadBinary reconstructs
  // a tracer whose Events()/Aggregates() reflect the dump.
  Status DumpBinary(const std::string& path) const;
  static Result<DiskTracer> LoadBinary(const std::string& path);
  Status DumpJsonl(const std::string& path) const;

  // Serialized ring + name table as bytes (DumpBinary writes these).
  std::vector<std::uint8_t> SerializeBinary() const;
  static Result<DiskTracer> ParseBinary(std::span<const std::uint8_t> bytes);

  // Clears events, aggregates, and the context stack; keeps capacity.
  void Reset();

 private:
  std::uint32_t InternOp(std::string_view name);           // caller holds mu_
  // The id of an interned `name` from the lock-free index, when it is there.
  bool FindInterned(std::string_view name, std::uint32_t* id) const;
  std::vector<TraceEvent> EventsLocked() const;            // caller holds mu_
  void AddLocked(const TraceEvent& ev);                    // caller holds mu_
  // The slot of `aggs` for `op_class`, or zeros; caller holds mu_.
  OpClassAggregate SlotFor(const std::vector<OpClassAggregate>& aggs,
                           std::string_view op_class) const;
  // Every slot of `aggs` with a request, by name; caller holds mu_.
  std::vector<std::pair<std::string, OpClassAggregate>> ByName(
      const std::vector<OpClassAggregate>& aggs) const;

  // Identifies this tracer incarnation in each thread's TLS stack map; a
  // fresh id (issued at construction, move, and Reset) abandons old stacks.
  std::atomic<std::uint64_t> tls_key_{0};

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t ring_head_ = 0;  // next slot to write once the ring is full
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;

  // op_id -> name. A deque so the strings (and views into them) stay at
  // stable addresses while new ops are interned concurrently.
  std::deque<std::string> op_names_;
  std::map<std::string, std::uint32_t, std::less<>> op_ids_;
  // A lock-free index over op_ids_ for PushOp's hot path: open addressing
  // by the name's hash over a short probe window, filled under mu_ (names
  // are never removed) and read without it. A slot's name points into
  // op_names_, whose strings never move.
  struct InternSlot {
    std::atomic<const std::string*> name{nullptr};
    std::atomic<std::uint32_t> id{0};
  };
  static constexpr std::size_t kInternSlots = 256;
  static constexpr std::size_t kInternProbes = 8;
  std::array<InternSlot, kInternSlots> intern_;
  // Indexed by op id, one slot per interned name, so Record adds to a slot
  // without a name lookup; the readers build the name-sorted views.
  std::vector<OpClassAggregate> aggregates_;
  std::vector<OpClassAggregate> root_aggregates_;
};

// RAII op context. A null tracer makes it a no-op, so instrumented code
// never has to check whether tracing is attached.
class ScopedOp {
 public:
  ScopedOp(DiskTracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->PushOp(name);
  }
  ~ScopedOp() {
    if (tracer_ != nullptr) tracer_->PopOp();
  }
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  DiskTracer* tracer_;
};

// A file system's public operation: its op context, its latency histogram
// (null for none) measured from here, and `cpu_us` of CPU charged at once.
class TimedOp {
 public:
  TimedOp(DiskTracer* tracer, std::string_view name, Histogram* latency,
          sim::VirtualClock* clock, sim::Micros cpu_us)
      : op_(tracer, name), latency_(latency, clock) {
    clock->AdvanceCpu(cpu_us);
  }

 private:
  ScopedOp op_;
  ScopedLatency latency_;
};

}  // namespace cedar::obs

#endif  // CEDAR_OBS_TRACE_H_
