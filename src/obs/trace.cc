#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>

#include "src/util/file.h"
#include "src/util/serial.h"

namespace cedar::obs {
namespace {

constexpr std::string_view kMagic = "CEDTRC04";
constexpr std::string_view kNoContext = "(none)";

std::uint64_t NextTracerKey() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread op-context stacks, one per tracer incarnation the thread is
// inside a scope of, and only the owning thread ever touches them. A stack
// that empties keeps its entry and its capacity, so the next outermost
// scope allocates nothing; an empty entry is also what a push for another
// tracer claims first, so a dead tracer's entry is reused, not leaked. (A
// stack left non-empty by Reset or a move inside an open scope stays until
// its thread exits.)
struct ThreadStack {
  std::uint64_t key = 0;
  std::vector<std::uint32_t> ops;
};

std::vector<ThreadStack>& TlsStacks() {
  thread_local std::vector<ThreadStack> stacks;
  return stacks;
}

// The calling thread's stack for tracer incarnation `key`, or null.
std::vector<std::uint32_t>* FindStack(std::uint64_t key) {
  for (ThreadStack& stack : TlsStacks()) {
    if (stack.key == key) {
      return &stack.ops;
    }
  }
  return nullptr;
}

// The calling thread's stack for `key`, claiming an empty entry (or adding
// one) when it has none.
std::vector<std::uint32_t>& StackFor(std::uint64_t key) {
  std::vector<ThreadStack>& stacks = TlsStacks();
  ThreadStack* idle = nullptr;
  for (ThreadStack& stack : stacks) {
    if (stack.key == key) {
      return stack.ops;
    }
    if (idle == nullptr && stack.ops.empty()) {
      idle = &stack;
    }
  }
  if (idle == nullptr) {
    idle = &stacks.emplace_back();
  }
  idle->key = key;
  return idle->ops;
}

}  // namespace

std::string_view DiskOpKindName(DiskOpKind kind) {
  switch (kind) {
    case DiskOpKind::kRead:
      return "read";
    case DiskOpKind::kWrite:
      return "write";
    case DiskOpKind::kLabelRead:
      return "label_read";
    case DiskOpKind::kLabelWrite:
      return "label_write";
  }
  return "unknown";
}

DiskTracer::DiskTracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  tls_key_.store(NextTracerKey(), std::memory_order_relaxed);
  InternOp(kNoContext);
}

DiskTracer::DiskTracer(DiskTracer&& other) noexcept {
  *this = std::move(other);
}

DiskTracer& DiskTracer::operator=(DiskTracer&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  tls_key_.store(NextTracerKey(), std::memory_order_relaxed);
  capacity_ = other.capacity_;
  ring_ = std::move(other.ring_);
  ring_head_ = other.ring_head_;
  next_seq_ = other.next_seq_;
  dropped_ = other.dropped_;
  // A deque's move hands over its blocks, so the index's name pointers stay
  // valid; the source's index is cleared with its names.
  op_names_ = std::move(other.op_names_);
  op_ids_ = std::move(other.op_ids_);
  for (std::size_t i = 0; i < kInternSlots; ++i) {
    InternSlot& to = intern_[i];
    InternSlot& from = other.intern_[i];
    to.id.store(from.id.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    to.name.store(from.name.load(std::memory_order_relaxed),
                  std::memory_order_release);
    from.name.store(nullptr, std::memory_order_relaxed);
  }
  aggregates_ = std::move(other.aggregates_);
  root_aggregates_ = std::move(other.root_aggregates_);
  return *this;
}

std::uint32_t DiskTracer::InternOp(std::string_view name) {
  auto it = op_ids_.find(name);
  if (it != op_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(op_names_.size());
  op_names_.emplace_back(name);
  op_ids_.emplace(std::string(name), id);
  aggregates_.emplace_back();
  root_aggregates_.emplace_back();
  // Publish into the lock-free index: the id first, then the name with
  // release, so a reader that sees the name sees its id. A name whose
  // probe window is full stays reachable through the locked map only.
  const std::size_t home = std::hash<std::string_view>{}(name);
  for (std::size_t probe = 0; probe < kInternProbes; ++probe) {
    InternSlot& slot = intern_[(home + probe) % kInternSlots];
    if (slot.name.load(std::memory_order_relaxed) == nullptr) {
      slot.id.store(id, std::memory_order_relaxed);
      slot.name.store(&op_names_.back(), std::memory_order_release);
      break;
    }
  }
  return id;
}

bool DiskTracer::FindInterned(std::string_view name,
                              std::uint32_t* id) const {
  const std::size_t home = std::hash<std::string_view>{}(name);
  for (std::size_t probe = 0; probe < kInternProbes; ++probe) {
    const InternSlot& slot = intern_[(home + probe) % kInternSlots];
    const std::string* interned = slot.name.load(std::memory_order_acquire);
    if (interned == nullptr) {
      return false;
    }
    if (*interned == name) {
      *id = slot.id.load(std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void DiskTracer::AddLocked(const TraceEvent& ev) {
  for (OpClassAggregate* agg :
       {&aggregates_[ev.op_id], &root_aggregates_[ev.root_id]}) {
    ++agg->requests;
    agg->sectors += ev.sectors;
    agg->seek_us += ev.seek_us;
    agg->rotational_us += ev.rotational_us;
    agg->transfer_us += ev.transfer_us;
    agg->controller_us += ev.controller_us;
  }
}

OpClassAggregate DiskTracer::SlotFor(
    const std::vector<OpClassAggregate>& aggs,
    std::string_view op_class) const {
  auto it = op_ids_.find(op_class);
  return it == op_ids_.end() ? OpClassAggregate{} : aggs[it->second];
}

std::vector<std::pair<std::string, OpClassAggregate>> DiskTracer::ByName(
    const std::vector<OpClassAggregate>& aggs) const {
  std::vector<std::pair<std::string, OpClassAggregate>> out;
  for (const auto& [name, id] : op_ids_) {
    if (aggs[id].requests > 0) out.emplace_back(name, aggs[id]);
  }
  return out;
}

void DiskTracer::PushOp(std::string_view name) {
  // A name seen before is found without the mutex; only a new one (or one
  // the index has no room for) takes it.
  std::uint32_t id = 0;
  if (!FindInterned(name, &id)) {
    std::lock_guard<std::mutex> lock(mu_);
    id = InternOp(name);
  }
  StackFor(tls_key_.load(std::memory_order_relaxed)).push_back(id);
}

void DiskTracer::PopOp() {
  std::vector<std::uint32_t>* stack =
      FindStack(tls_key_.load(std::memory_order_relaxed));
  if (stack != nullptr && !stack->empty()) stack->pop_back();
}

std::string_view DiskTracer::CurrentOp() const {
  const std::vector<std::uint32_t>* stack =
      FindStack(tls_key_.load(std::memory_order_relaxed));
  if (stack == nullptr || stack->empty()) return kNoContext;
  const std::uint32_t id = stack->back();
  // The name lookup takes the mutex: op_names_ is a deque, so the string
  // itself is address-stable, but concurrent interning mutates the deque's
  // own bookkeeping. The returned view stays valid for the tracer's
  // lifetime (Reset keeps the name table).
  std::lock_guard<std::mutex> lock(mu_);
  return id < op_names_.size() ? std::string_view(op_names_[id]) : kNoContext;
}

void DiskTracer::Record(std::uint64_t lba, std::uint32_t sectors,
                        DiskOpKind kind, std::uint64_t start_us,
                        std::uint64_t seek_us, std::uint64_t rotational_us,
                        std::uint64_t transfer_us, std::uint64_t controller_us,
                        std::uint32_t batch, std::uint32_t spindle) {
  // Read the caller's context from TLS before taking the tracer mutex.
  std::uint32_t op_id = 0;
  std::uint32_t root_id = 0;
  if (const std::vector<std::uint32_t>* stack =
          FindStack(tls_key_.load(std::memory_order_relaxed));
      stack != nullptr && !stack->empty()) {
    op_id = stack->back();
    root_id = stack->front();
  }

  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent ev;
  ev.seq = next_seq_++;
  ev.start_us = start_us;
  ev.lba = lba;
  ev.sectors = sectors;
  ev.spindle = spindle;
  ev.kind = kind;
  ev.seek_us = seek_us;
  ev.rotational_us = rotational_us;
  ev.transfer_us = transfer_us;
  ev.controller_us = controller_us;
  ev.op_id = op_id < op_names_.size() ? op_id : 0;
  ev.root_id = root_id < op_names_.size() ? root_id : 0;
  ev.batch = batch;

  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[ring_head_] = ev;
    ring_head_ = (ring_head_ + 1) % capacity_;
    ++dropped_;
  }

  AddLocked(ev);
}

std::vector<TraceEvent> DiskTracer::EventsLocked() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + ring_head_, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + ring_head_);
  }
  return out;
}

std::vector<TraceEvent> DiskTracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EventsLocked();
}

std::string_view DiskTracer::OpName(std::uint32_t op_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_id < op_names_.size() ? std::string_view(op_names_[op_id])
                                  : kNoContext;
}

std::uint64_t DiskTracer::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t DiskTracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

OpClassAggregate DiskTracer::AggregateFor(std::string_view op_class) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SlotFor(aggregates_, op_class);
}

std::vector<std::pair<std::string, OpClassAggregate>> DiskTracer::Aggregates()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return ByName(aggregates_);
}

OpClassAggregate DiskTracer::RootAggregateFor(std::string_view op_class) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SlotFor(root_aggregates_, op_class);
}

std::vector<std::pair<std::string, OpClassAggregate>>
DiskTracer::RootAggregates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ByName(root_aggregates_);
}

std::vector<std::uint8_t> DiskTracer::SerializeBinary() const {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w;
  w.Magic(kMagic);
  w.U32(static_cast<std::uint32_t>(op_names_.size()));
  for (const auto& name : op_names_) w.Str(name);

  const std::vector<TraceEvent> events = EventsLocked();
  w.U64(next_seq_);
  w.U64(dropped_);
  w.U32(static_cast<std::uint32_t>(events.size()));
  for (const TraceEvent& ev : events) {
    w.U64(ev.seq);
    w.U64(ev.start_us);
    w.U64(ev.lba);
    w.U32(ev.sectors);
    w.U32(ev.spindle);
    w.U8(static_cast<std::uint8_t>(ev.kind));
    w.U64(ev.seek_us);
    w.U64(ev.rotational_us);
    w.U64(ev.transfer_us);
    w.U64(ev.controller_us);
    w.U32(ev.op_id);
    w.U32(ev.root_id);
    w.U32(ev.batch);
  }
  return w.Take();
}

Result<DiskTracer> DiskTracer::ParseBinary(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (!r.Magic(kMagic)) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad trace magic");
  }
  const auto corrupt = [](const char* what) {
    return MakeError(ErrorCode::kCorruptMetadata,
                     std::string("corrupt trace: ") + what);
  };
  // The tracer under construction is thread-confined; no locking needed.
  // Name 0 is the "(none)" context every tracer starts with; the rest were
  // interned once each.
  DiskTracer tracer;
  const std::uint32_t num_names = r.Count(2);
  if (num_names == 0 || r.Str() != kNoContext) {
    return corrupt("missing the (none) context");
  }
  for (std::uint32_t i = 1; i < num_names; ++i) {
    if (tracer.InternOp(r.Str()) != i) {
      return corrupt("repeated op name");
    }
  }
  const std::uint64_t total = r.U64();
  const std::uint64_t dropped = r.U64();
  // seq, start, lba, u32 sectors and spindle, u8 kind, four u64 times,
  // u32 op, root and batch.
  const std::uint32_t num_events = r.Count(3 * 8 + 2 * 4 + 1 + 4 * 8 + 3 * 4);
  tracer.capacity_ = num_events == 0 ? kDefaultCapacity : num_events;
  for (std::uint32_t i = 0; i < num_events; ++i) {
    TraceEvent ev;
    ev.seq = r.U64();
    ev.start_us = r.U64();
    ev.lba = r.U64();
    ev.sectors = r.U32();
    ev.spindle = r.U32();
    const std::uint8_t kind = r.U8();
    ev.kind = static_cast<DiskOpKind>(kind);
    ev.seek_us = r.U64();
    ev.rotational_us = r.U64();
    ev.transfer_us = r.U64();
    ev.controller_us = r.U64();
    ev.op_id = r.U32();
    ev.root_id = r.U32();
    ev.batch = r.U32();
    if (kind > static_cast<std::uint8_t>(DiskOpKind::kLabelWrite) ||
        ev.op_id >= num_names || ev.root_id >= num_names) {
      return corrupt("event names an unknown kind or op");
    }
    tracer.ring_.push_back(ev);
    tracer.AddLocked(ev);
  }
  if (!r.done()) {
    return corrupt("truncated or followed by extra bytes");
  }
  tracer.next_seq_ = total;
  tracer.dropped_ = dropped;
  return tracer;
}

Status DiskTracer::DumpBinary(const std::string& path) const {
  return WriteFileBytes(path, SerializeBinary(), "trace file");
}

Result<DiskTracer> DiskTracer::LoadBinary(const std::string& path) {
  CEDAR_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> bytes,
                         ReadFileBytes(path, "trace file"));
  return ParseBinary(bytes);
}

Status DiskTracer::DumpJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "cannot open trace file for writing: " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  char line[512];
  for (const TraceEvent& ev : EventsLocked()) {
    const std::string_view op =
        ev.op_id < op_names_.size() ? std::string_view(op_names_[ev.op_id])
                                    : kNoContext;
    const std::string_view root =
        ev.root_id < op_names_.size() ? std::string_view(op_names_[ev.root_id])
                                      : kNoContext;
    std::snprintf(
        line, sizeof(line),
        "{\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64
        ",\"op\":\"%s\",\"root\":\"%s\",\"kind\":\"%s\",\"lba\":%" PRIu64
        ",\"sectors\":%u,\"spindle\":%u,"
        "\"seek_us\":%" PRIu64 ",\"rot_us\":%" PRIu64 ",\"xfer_us\":%" PRIu64
        ",\"ctl_us\":%" PRIu64 ",\"batch\":%u}\n",
        ev.seq, ev.start_us, std::string(op).c_str(),
        std::string(root).c_str(),
        std::string(DiskOpKindName(ev.kind)).c_str(), ev.lba, ev.sectors,
        ev.spindle, ev.seek_us, ev.rotational_us, ev.transfer_us,
        ev.controller_us, ev.batch);
    out << line;
  }
  out.flush();
  if (!out) {
    return MakeError(ErrorCode::kInternal, "short write to trace file");
  }
  return OkStatus();
}

void DiskTracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_head_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
  // A fresh incarnation id abandons every thread's context stack (we cannot
  // reach other threads' TLS from here). The name table survives, so ids in
  // any still-live ScopedOp would remain valid — but their stacks are gone,
  // which is the point of a reset.
  tls_key_.store(NextTracerKey(), std::memory_order_relaxed);
  aggregates_.assign(op_names_.size(), OpClassAggregate{});
  root_aggregates_.assign(op_names_.size(), OpClassAggregate{});
}

}  // namespace cedar::obs
