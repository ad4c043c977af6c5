// cedar_perfbench: runs one workload of the repository benchmark and prints
// its metrics. perfbench/run.py builds this binary and turns the last line
// it prints into the benchmark's result line; README.md in this directory
// describes the workloads and metrics.
//
//   cedar_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--commit <id>]
//
// --trace 0 measures the end-to-end metrics on the bare stack. --trace 1
// first repeats that untraced run as a reference, then runs the same
// script again with the span decorators and a DiskTracer attached, and
// reports the per-layer metrics plus the tracing overhead between the two.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/rig.h"
#include "perfbench/script.h"
#include "perfbench/spans.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace perfbench {
namespace {

using cedar::ErrorCode;
using cedar::Status;

constexpr std::size_t kMaxReportedFailures = 8;
constexpr std::uint32_t kLiveLogSampleEvery = 256;
constexpr std::size_t kCrashPoints = 9;
constexpr int kSetupsPerSlice = 2;

// ---------------------------------------------------------------------------
// Metric values.

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // percentiles: how many samples they rest on
};
using MetricMap = std::map<std::string, Metric>;

double Percentile(std::vector<std::uint32_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank on the exact samples.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// CPU time of every thread of the process.
std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Force attribution (traced runs). Each call, at its end, is credited with
// the log forces completed since the previous credit, so every force is
// counted once. With one client this is exactly the fsd.forces delta across
// the call; with several, a force is credited to the first call that
// returns after it.

enum class ForceCause { kTick, kClient, kOp, kCount };

class ForceLedger {
 public:
  explicit ForceLedger(BenchRig* rig) : rig_(rig) { Reset(); }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    mark_ = rig_->CounterSum("fsd.forces");
    by_.fill(0);
  }
  void Credit(ForceCause cause) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t now = rig_->CounterSum("fsd.forces");
    by_[static_cast<int>(cause)] += now - mark_;
    mark_ = now;
  }
  std::uint64_t by(ForceCause cause) const {
    return by_[static_cast<int>(cause)];
  }

 private:
  BenchRig* rig_;
  std::mutex mu_;
  std::uint64_t mark_ = 0;
  std::array<std::uint64_t, static_cast<int>(ForceCause::kCount)> by_{};
};

// ---------------------------------------------------------------------------
// Script execution.

struct ClientResult {
  std::vector<std::uint32_t> update_us;
  std::vector<std::uint32_t> read_us;
  std::vector<std::uint32_t> durable_us;
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t client_forces = 0;  // client Force() calls
  std::int64_t gen_ns = 0;          // making payloads and expected bytes
  std::vector<std::uint64_t> live_log_bytes;
  std::vector<std::string> failures;

  void Merge(const ClientResult& other) {
    update_us.insert(update_us.end(), other.update_us.begin(),
                     other.update_us.end());
    read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
    durable_us.insert(durable_us.end(), other.durable_us.begin(),
                      other.durable_us.end());
    ops += other.ops;
    updates += other.updates;
    user_bytes += other.user_bytes;
    attempted += other.attempted;
    failed += other.failed;
    client_forces += other.client_forces;
    gen_ns += other.gen_ns;
    live_log_bytes.insert(live_log_bytes.end(), other.live_log_bytes.begin(),
                          other.live_log_bytes.end());
    for (const std::string& f : other.failures) {
      if (failures.size() < kMaxReportedFailures) {
        failures.push_back(f);
      }
    }
  }
};

class Executor {
 public:
  // `cpu` (nullptr for one client) is the turn several clients take to run
  // FSD calls; a Force() waits for durability without holding it.
  Executor(BenchRig* rig, const WorkloadSpec& spec, const Namespace& ns,
           const ClientScript& script, std::uint32_t client,
           SpanRecorder* spans, ForceLedger* ledger, std::mutex* cpu)
      : rig_(rig),
        spec_(spec),
        ns_(ns),
        script_(script),
        client_(client),
        spans_(spans),
        ledger_(ledger),
        cpu_(cpu) {
    if (spans_ != nullptr) {
      for (std::size_t k = 0; k < kOpKinds; ++k) {
        op_names_[k] = spans_->Intern(
            std::string("op.") + OpKindName(static_cast<OpKind>(k)));
      }
      tick_name_ = spans_->Intern("op.tick");
      checkpoint_name_ = spans_->Intern("op.checkpoint");
    }
  }

  // Runs ops [begin, end) of `ops`; samples go into `out` when `measure`.
  void Run(const std::vector<Op>& ops, std::size_t begin, std::size_t end,
           bool measure, ClientResult* out) {
    measure_ = measure;
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = ops[i];
      if (spans_ != nullptr) {
        spans_->SetOp((std::uint64_t{client_ + 1} << 32) | (i + 1));
      }
      std::unique_lock<std::mutex> cpu;
      if (cpu_ != nullptr && op.kind != OpKind::kForce) {
        cpu = std::unique_lock<std::mutex>(*cpu_);
      }
      const std::uint64_t v0 = rig_->VirtualNow();
      const std::uint32_t token =
          spans_ == nullptr
              ? SpanRecorder::kNotRecorded
              : spans_->Open(op_names_[static_cast<int>(op.kind)], v0);
      Execute(op, out);
      const std::uint64_t v1 = rig_->VirtualNow();
      if (spans_ != nullptr) {
        spans_->Close(token, v1);
        spans_->SetOp(0);
      }
      if (ledger_ != nullptr) {
        ledger_->Credit(op.kind == OpKind::kForce ? ForceCause::kClient
                                                  : ForceCause::kOp);
      }
      ++out->attempted;
      if (measure) {
        ++out->ops;
        const auto us = static_cast<std::uint32_t>(v1 - v0);
        switch (FamilyOf(op.kind)) {
          case OpFamily::kUpdate:
            out->update_us.push_back(us);
            if (op.expect_found) {
              ++out->updates;
            }
            break;
          case OpFamily::kRead:
            out->read_us.push_back(us);
            break;
          case OpFamily::kDurable:
            out->durable_us.push_back(us);
            ++out->client_forces;
            break;
        }
      }
      if (cpu.owns_lock()) {
        cpu.unlock();
      }
      if ((i + 1) % spec_.tick_every == 0) {
        Tick(out);
      }
      if (measure && spans_ != nullptr && (i + 1) % kLiveLogSampleEvery == 0) {
        for (std::uint32_t v = 0; v < rig_->volume_count(); ++v) {
          cedar::Result<std::uint64_t> live = rig_->fsd(v).RecoveryWindow();
          if (live.ok()) {
            out->live_log_bytes.push_back(*live);
          }
        }
      }
    }
  }

  // Post-crash oracle: every name whose last change precedes the client's
  // last completed Force() must be exactly as the model left it.
  void CheckDurable(ClientResult* out) {
    for (const FinalState& fin : script_.final_states) {
      if (fin.last_change != 0 && fin.last_change >= script_.last_force) {
        continue;  // changed after the last force: either state may survive
      }
      ++out->attempted;
      const std::string& name = ns_.names[fin.name];
      cedar::Result<fs::FileHandle> handle = rig_->fs().Open(name);
      if (!fin.exists) {
        if (handle.ok() || handle.status().code() != ErrorCode::kNotFound) {
          Fail(out, "durable " + name + ": expected absent, got " +
                        (handle.ok() ? std::string("a file")
                                     : handle.status().ToString()));
        }
        continue;
      }
      if (!handle.ok()) {
        Fail(out, "durable " + name + ": " + handle.status().ToString());
        continue;
      }
      if (handle->version != fin.version || handle->byte_size != fin.size) {
        Fail(out, "durable " + name + ": version/size " +
                      std::to_string(handle->version) + "/" +
                      std::to_string(handle->byte_size) + " != " +
                      std::to_string(fin.version) + "/" +
                      std::to_string(fin.size));
      } else {
        CheckBytes(*handle, fin.content, fin.size, name, out);
      }
      (void)rig_->fs().Close(*handle);
    }
  }

  // A checkpoint round through the router (all clients are paused).
  void Checkpoint(ClientResult* out) {
    const std::uint32_t token =
        spans_ == nullptr ? SpanRecorder::kNotRecorded
                          : spans_->Open(checkpoint_name_, rig_->VirtualNow());
    Status status = rig_->fs().Checkpoint();
    if (spans_ != nullptr) {
      spans_->Close(token, rig_->VirtualNow());
    }
    if (ledger_ != nullptr) {
      ledger_->Credit(ForceCause::kOp);
    }
    if (!status.ok()) {
      Fail(out, "checkpoint: " + status.ToString());
    }
  }

 private:
  void Fail(ClientResult* out, const std::string& what) {
    ++out->failed;
    if (out->failures.size() < kMaxReportedFailures) {
      out->failures.push_back(what);
    }
  }

  void Tick(ClientResult* out) {
    for (std::uint32_t v = 0; v < rig_->volume_count(); ++v) {
      const std::uint32_t token =
          spans_ == nullptr ? SpanRecorder::kNotRecorded
                            : spans_->Open(tick_name_, rig_->VirtualNow());
      Status status = rig_->Tick(v);
      if (spans_ != nullptr) {
        spans_->Close(token, rig_->VirtualNow());
      }
      if (ledger_ != nullptr) {
        ledger_->Credit(ForceCause::kTick);
      }
      if (!status.ok()) {
        Fail(out, "tick: " + status.ToString());
      }
    }
  }

  std::span<const std::uint8_t> Payload(std::uint64_t content,
                                        std::uint32_t size, ClientResult* out) {
    const std::int64_t t0 = measure_ && spans_ != nullptr ? HostNowNs() : 0;
    payload_.resize(size);
    FillContent(content, 0, payload_);
    if (t0 != 0) {
      out->gen_ns += HostNowNs() - t0;
    }
    return payload_;
  }

  // Reads the expected prefix of the file in chunks and compares it with
  // the regenerated content.
  void CheckBytes(const fs::FileHandle& handle, std::uint64_t content,
                  std::uint32_t size, const std::string& name,
                  ClientResult* out) {
    const std::uint64_t length =
        spec_.read_limit == 0 ? size : std::min(size, spec_.read_limit);
    for (std::uint64_t offset = 0; offset < length;
         offset += spec_.read_chunk) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(spec_.read_chunk, length - offset));
      buffer_.resize(n);
      Status read = rig_->fs().Read(handle, offset, buffer_);
      if (!read.ok()) {
        Fail(out, "read " + name + ": " + read.ToString());
        return;
      }
      const std::int64_t t0 = measure_ && spans_ != nullptr ? HostNowNs() : 0;
      expected_.resize(n);
      FillContent(content, offset, expected_);
      const bool same = std::memcmp(buffer_.data(), expected_.data(), n) == 0;
      if (t0 != 0) {
        out->gen_ns += HostNowNs() - t0;
      }
      if (!same) {
        Fail(out, "read " + name + ": content differs at offset " +
                      std::to_string(offset));
        return;
      }
    }
  }

  // Compares a status with the model's prediction.
  bool Expect(const Status& status, const Op& op, ClientResult* out) {
    const bool good = op.expect_found
                          ? status.ok()
                          : status.code() == ErrorCode::kNotFound;
    if (!good) {
      Fail(out, std::string(OpKindName(op.kind)) + " " + ns_.names[op.name] +
                    ": " + (status.ok() ? "OK" : status.ToString()) +
                    (op.expect_found ? "" : " (expected not found)"));
    }
    return good;
  }

  void Execute(const Op& op, ClientResult* out) {
    fs::FileSystem& fs = rig_->fs();
    const std::string& name = ns_.names[op.name];
    switch (op.kind) {
      case OpKind::kCreate: {
        Expect(fs.CreateFile(name, Payload(op.content, op.size, out)).status(),
               op, out);
        if (measure_) {
          out->user_bytes += op.size;
        }
        return;
      }
      case OpKind::kSetKeep:
        Expect(fs.SetKeep(name, op.keep), op, out);
        return;
      case OpKind::kWrite:
      case OpKind::kOpenRead: {
        cedar::Result<fs::FileHandle> handle = fs.Open(name);
        if (!Expect(handle.status(), op, out) || !handle.ok()) {
          return;
        }
        if (op.kind == OpKind::kWrite) {
          Expect(fs.Write(*handle, 0, Payload(op.content, op.size, out)), op,
                 out);
          if (measure_) {
            out->user_bytes += op.size;
          }
        } else if (handle->version != op.version ||
                   handle->byte_size != op.size) {
          Fail(out, "open " + name + ": version/size mismatch");
        } else {
          CheckBytes(*handle, op.content, op.size, name, out);
        }
        Expect(fs.Close(*handle), op, out);
        return;
      }
      case OpKind::kDelete:
        Expect(fs.DeleteFile(name), op, out);
        return;
      case OpKind::kTouch:
        Expect(fs.Touch(name), op, out);
        return;
      case OpKind::kStat: {
        cedar::Result<fs::FileInfo> info = rig_->Stat(name);
        if (Expect(info.status(), op, out) && info.ok() &&
            (info->version != op.version || info->byte_size != op.size)) {
          Fail(out, "stat " + name + ": version/size mismatch");
        }
        return;
      }
      case OpKind::kList: {
        const ExpectedList& want = script_.lists[op.list];
        const std::string& prefix = ns_.prefixes[want.prefix];
        cedar::Result<std::vector<fs::FileInfo>> got = fs.List(prefix);
        if (!got.ok()) {
          Fail(out, "list " + prefix + ": " + got.status().ToString());
          return;
        }
        bool same = got->size() == want.entries.size();
        for (std::size_t i = 0; same && i < got->size(); ++i) {
          const fs::FileInfo& info = (*got)[i];
          const ListEntry& entry = want.entries[i];
          same = info.name == ns_.names[entry.name] &&
                 info.version == entry.version &&
                 info.byte_size == entry.size;
        }
        if (!same) {
          Fail(out, "list " + prefix + ": " + std::to_string(got->size()) +
                        " entries, expected " +
                        std::to_string(want.entries.size()) + " (or differ)");
        }
        return;
      }
      case OpKind::kRename:
        Expect(fs.Rename(name, ns_.names[op.name2]), op, out);
        return;
      case OpKind::kForce:
        Expect(fs.Force(), op, out);
        return;
    }
  }

  BenchRig* rig_;
  const WorkloadSpec& spec_;
  const Namespace& ns_;
  const ClientScript& script_;
  std::uint32_t client_;
  SpanRecorder* spans_;
  ForceLedger* ledger_;
  std::mutex* cpu_;
  bool measure_ = false;
  std::uint32_t op_names_[kOpKinds] = {};
  std::uint32_t tick_name_ = 0;
  std::uint32_t checkpoint_name_ = 0;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> expected_;
};

// Runs every client over slice `slice` of `slices` of its warm-up or
// measured range, on threads when there are several. With
// `checkpoint_every`, the clients meet at a barrier every that many ops and
// one of them runs a checkpoint round while the others wait: a maintenance
// pause, whose disk time shows in throughput, recovery and disk bytes but
// not inside whichever client call the host happened to be running.
void RunClients(std::vector<std::unique_ptr<Executor>>& executors,
                const std::vector<ClientScript>& scripts,
                std::uint32_t checkpoint_every, bool measured,
                std::size_t slice, std::size_t slices,
                std::vector<ClientResult>* results) {
  auto range = [&](std::size_t c) {
    const ClientScript& s = scripts[c];
    const std::size_t first = measured ? s.warmup : 0;
    const std::size_t length = (measured ? s.ops.size() : s.warmup) - first;
    return std::make_pair(first + length * slice / slices,
                          first + length * (slice + 1) / slices);
  };
  auto checkpoint = [&]() noexcept {
    executors[0]->Checkpoint(&(*results)[0]);
  };
  // Every client has the same range, so all reach the barrier equally often.
  std::barrier sync(static_cast<std::ptrdiff_t>(executors.size()),
                    checkpoint);
  auto run = [&](std::size_t c) {
    const auto [begin, end] = range(c);
    for (std::size_t i = begin; i < end;) {
      const std::size_t next =
          checkpoint_every == 0 ? end : (i / checkpoint_every + 1) *
                                            checkpoint_every;
      executors[c]->Run(scripts[c].ops, i, std::min(end, next), measured,
                        &(*results)[c]);
      // Without client checkpoint rounds, `next` is the range end: no
      // barrier and no Checkpoint() call there.
      if (checkpoint_every != 0 && next <= end) {
        sync.arrive_and_wait();
      }
      i = std::min(end, next);
    }
  };
  if (executors.size() == 1) {
    run(0);
    return;
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < executors.size(); ++c) {
    threads.emplace_back(run, c);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// ---------------------------------------------------------------------------
// One run: set-up, warm-up, measured phase, crash + recovery, checks.

struct VolumeSnapshot {
  std::uint64_t clock = 0;
  std::uint64_t cpu = 0;
  sim::DiskStats disk;
  std::vector<sim::DiskStats> spindles;
  std::map<std::string, cedar::obs::OpClassAggregate> aggregates;
};

struct Snapshot {
  std::vector<VolumeSnapshot> volumes;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t cross_renames = 0;
};

const char* const kFsdCounters[] = {
    "fsd.forces",          "fsd.empty_forces",
    "fsd.pages_captured",  "fsd.space_forces",
    "fsd.ckpt_pages",      "fsd.third_flush_pages",
    "fsd.third_flush_fallbacks", "fsd.home_write_requests",
    "fsd.home_writes_coalesced",
};

Snapshot TakeSnapshot(BenchRig& rig) {
  Snapshot snap;
  for (std::uint32_t v = 0; v < rig.volume_count(); ++v) {
    VolumeSnapshot vs;
    vs.clock = rig.clock(v).now();
    vs.cpu = rig.clock(v).cpu_time();
    vs.disk = rig.device(v).stats();
    for (std::uint32_t s = 0; s < rig.device(v).spindle_count(); ++s) {
      vs.spindles.push_back(rig.device(v).SpindleStats(s));
    }
    if (cedar::obs::DiskTracer* tracer = rig.tracer(v)) {
      for (auto& [name, agg] : tracer->Aggregates()) {
        vs.aggregates[name] = agg;
      }
    }
    snap.volumes.push_back(std::move(vs));
  }
  for (const char* name : kFsdCounters) {
    snap.counters[name] = rig.CounterSum(name);
  }
  if (const cedar::obs::Counter* c =
          rig.router().Metrics().FindCounter("router.cross_renames")) {
    snap.cross_renames = c->value();
  }
  return snap;
}

void AddAggregate(cedar::obs::OpClassAggregate* sum,
                  const cedar::obs::OpClassAggregate& add) {
  sum->requests += add.requests;
  sum->sectors += add.sectors;
  sum->seek_us += add.seek_us;
  sum->rotational_us += add.rotational_us;
  sum->transfer_us += add.transfer_us;
  sum->controller_us += add.controller_us;
}

// Host speed reference for setup_s. On a shared VM the host's speed drifts
// by a third over minutes (other tenants' load on the shared cache and
// memory bus), and set-up samples taken within one run cannot average that
// out. So every set-up is paired with this loop, timed just before it: it
// faults in fresh memory and streams a hash through it twice, the kinds of
// work building and populating a rig do, but runs none of the repository's
// code. (A variant that also chased pointers around a 4 MiB cycle tracked
// the set-ups less well.)
constexpr double kReferenceLoopS = 0.04;

double ReferenceLoopS() {
  static volatile std::uint64_t sink = 0;
  const std::int64_t t0 = ProcessCpuNs();
  std::vector<std::uint64_t> words(std::size_t{1} << 22);  // 32 MiB
  std::uint64_t h = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      h ^= words[i] + i;
      h *= 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      words[i] = h;
    }
  }
  sink = h;
  return static_cast<double>(ProcessCpuNs() - t0) * 1e-9;
}

struct SetupSample {
  double setup_s = 0;      // process CPU time of one set-up
  double reference_s = 0;  // ReferenceLoopS() just before it
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// setup_s: the median set-up, each scaled to a host that runs the
// reference loop in kReferenceLoopS.
double SetupSeconds(const std::vector<SetupSample>& setups) {
  std::vector<double> scaled;
  for (const SetupSample& s : setups) {
    scaled.push_back(s.setup_s / s.reference_s * kReferenceLoopS);
  }
  return Median(std::move(scaled));
}

struct RunResult {
  ClientResult total;
  std::vector<SetupSample> setups;
  double phase_host_s = 0;
  std::uint64_t elapsed_us = 0;  // largest per-volume advance, measured phase
  std::vector<std::uint64_t> mount_us;      // the final crash, per volume
  std::vector<std::uint32_t> recovery_us;   // every crash point, slowest volume
  // Name-table pages over all volumes, from the Fsck of each crash point:
  // the start of the measured phase, after each slice, and the end.
  std::vector<std::uint64_t> nt_pages;
  Snapshot before;
  Snapshot after;
  // Recovery (traced runs read these).
  std::uint64_t live_log_at_crash = 0;
  std::uint64_t pages_replayed = 0;
  std::uint64_t mount_disk_reads = 0;
  std::map<std::string, cedar::obs::OpClassAggregate> mount_aggregates;
  std::uint64_t forces_tick = 0;
  std::uint64_t forces_client = 0;
  std::uint64_t forces_op = 0;
  std::vector<sim::Lba> log_base;  // per volume
  std::uint32_t log_sectors = 0;
};

// Set-up: build the rig, format, populate, force. Timed in process CPU
// time (all threads), which a busy host's run queue does not inflate, and
// paired with the reference loop run just before it.
std::unique_ptr<BenchRig> SetUp(const WorkloadSpec& spec, const Namespace& ns,
                                const std::vector<ClientScript>& scripts,
                                SpanRecorder* spans, ClientResult* out,
                                std::vector<SetupSample>* setups) {
  SetupSample sample;
  sample.reference_s = ReferenceLoopS();
  const std::int64_t t0 = ProcessCpuNs();
  auto rig = std::make_unique<BenchRig>(spec, spans);
  CEDAR_CHECK_OK(rig->Format());
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    Executor populate(rig.get(), spec, ns, scripts[c],
                      static_cast<std::uint32_t>(c), nullptr, nullptr,
                      nullptr);
    populate.Run(scripts[c].populate, 0, scripts[c].populate.size(), false,
                 out);
  }
  CEDAR_CHECK_OK(rig->fs().Force());
  sample.setup_s = static_cast<double>(ProcessCpuNs() - t0) * 1e-9;
  setups->push_back(sample);
  return rig;
}

// `timed_setups`: besides the rig it runs on, set up kSetupsPerSlice
// throwaway rigs after each slice of the measured phase, so that the
// set-up samples spread over the whole run rather than one moment of the
// host's load.
RunResult RunOnce(const WorkloadSpec& spec, const Namespace& ns,
                  const std::vector<ClientScript>& scripts, bool timed_setups,
                  SpanRecorder* spans) {
  RunResult run;
  std::unique_ptr<BenchRig> rig =
      SetUp(spec, ns, scripts, spans, &run.total, &run.setups);

  std::unique_ptr<ForceLedger> ledger;
  if (spans != nullptr) {
    ledger = std::make_unique<ForceLedger>(rig.get());
  }
  std::mutex cpu;
  std::vector<std::unique_ptr<Executor>> executors;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    executors.push_back(std::make_unique<Executor>(
        rig.get(), spec, ns, scripts[c], static_cast<std::uint32_t>(c), spans,
        ledger.get(), scripts.size() > 1 ? &cpu : nullptr));
  }
  std::vector<ClientResult> results(scripts.size());
  RunClients(executors, scripts, spec.checkpoint_every, /*measured=*/false, 0,
             1, &results);
  // A crash image at the start of the measured phase is checked too; its
  // Fsck gives the name-table size the phase starts from.
  {
    std::vector<std::uint64_t> mount_us;
    std::uint64_t nt_pages = 0;
    std::vector<std::string> failures;
    ++run.total.attempted;
    run.total.failed += rig->RecoverCrashImage(&mount_us, &nt_pages, &failures);
    run.nt_pages.push_back(nt_pages);
    for (const std::string& f : failures) {
      run.total.failures.push_back("before the measured phase: " + f);
    }
  }

  // The measured phase runs in kCrashPoints slices. After each slice but
  // the last, a copy of the disks as they stand is recovered on the side;
  // after the last, the rig itself crashes. recovery_vms averages all of
  // them, so it does not hang on where one crash fell in the log cycle.
  run.before = TakeSnapshot(*rig);
  if (spans != nullptr) {
    ledger->Reset();
    spans->Enable(true);
  }
  std::int64_t phase_ns = 0;
  for (std::size_t slice = 0; slice < kCrashPoints; ++slice) {
    const std::int64_t t0 = HostNowNs();
    RunClients(executors, scripts, spec.checkpoint_every, /*measured=*/true,
               slice, kCrashPoints, &results);
    phase_ns += HostNowNs() - t0;
    for (int i = 0; timed_setups && i < kSetupsPerSlice; ++i) {
      ClientResult scratch;
      SetUp(spec, ns, scripts, nullptr, &scratch, &run.setups);
      run.total.Merge(scratch);
    }
    if (slice + 1 < kCrashPoints) {
      std::vector<std::uint64_t> mount_us;
      std::uint64_t nt_pages = 0;
      ++run.total.attempted;
      std::vector<std::string> failures;
      run.total.failed +=
          rig->RecoverCrashImage(&mount_us, &nt_pages, &failures);
      run.nt_pages.push_back(nt_pages);
      for (const std::string& f : failures) {
        run.total.failures.push_back("after slice " +
                                     std::to_string(slice + 1) + ": " + f);
      }
      run.recovery_us.push_back(
          *std::max_element(mount_us.begin(), mount_us.end()));
    }
  }
  run.phase_host_s = static_cast<double>(phase_ns) * 1e-9;
  run.after = TakeSnapshot(*rig);
  for (std::uint32_t v = 0; v < rig->volume_count(); ++v) {
    run.elapsed_us = std::max(
        run.elapsed_us, run.after.volumes[v].clock - run.before.volumes[v].clock);
    run.log_base.push_back(rig->fsd(v).layout().log_base);
  }
  run.log_sectors = spec.fsd.log_sectors;
  if (ledger != nullptr) {
    run.forces_tick = ledger->by(ForceCause::kTick);
    run.forces_client = ledger->by(ForceCause::kClient);
    run.forces_op = ledger->by(ForceCause::kOp);
  }

  // Crash at the end of the measured phase, with no shutdown, and recover.
  for (std::uint32_t v = 0; v < rig->volume_count(); ++v) {
    cedar::Result<std::uint64_t> live = rig->fsd(v).RecoveryWindow();
    run.live_log_at_crash += live.ok() ? *live : 0;
  }
  std::uint64_t reads_before = 0;
  const Snapshot at_crash = TakeSnapshot(*rig);
  for (const VolumeSnapshot& vs : at_crash.volumes) {
    reads_before += vs.disk.reads;
  }
  Status recovered = rig->CrashAndRecover(&run.mount_us);
  if (recovered.ok()) {
    run.recovery_us.push_back(
        *std::max_element(run.mount_us.begin(), run.mount_us.end()));
  }
  if (spans != nullptr) {
    spans->Enable(false);
  }
  if (!recovered.ok()) {
    ++run.total.attempted;
    ++run.total.failed;
    run.total.failures.push_back("recovery: " + recovered.ToString());
    for (ClientResult& r : results) {
      run.total.Merge(r);
    }
    return run;
  }
  const Snapshot recovered_snap = TakeSnapshot(*rig);
  for (std::uint32_t v = 0; v < rig->volume_count(); ++v) {
    run.mount_disk_reads += recovered_snap.volumes[v].disk.reads;
    for (const auto& [name, agg] : recovered_snap.volumes[v].aggregates) {
      cedar::obs::OpClassAggregate delta = agg;
      auto it = at_crash.volumes[v].aggregates.find(name);
      if (it != at_crash.volumes[v].aggregates.end()) {
        delta = agg - it->second;
      }
      AddAggregate(&run.mount_aggregates[name], delta);
    }
  }
  run.mount_disk_reads -= reads_before;
  run.pages_replayed = rig->CounterSum("fsd.recovery_pages_replayed");

  // Checks: structural fsck on every volume, then the durability oracle.
  run.nt_pages.push_back(0);
  for (std::uint32_t v = 0; v < rig->volume_count(); ++v) {
    ++run.total.attempted;
    cedar::Result<core::FsckReport> report = rig->fsd(v).Fsck();
    if (!report.ok() || !report->Clean()) {
      ++run.total.failed;
      run.total.failures.push_back("fsck volume " + std::to_string(v) +
                                   ": " + FsckFindings(report));
    } else {
      run.nt_pages.back() += report->nt_pages_checked;
    }
  }
  for (std::size_t c = 0; c < executors.size(); ++c) {
    executors[c]->CheckDurable(&results[c]);
  }
  for (ClientResult& r : results) {
    run.total.Merge(r);
  }
  return run;
}


// ---------------------------------------------------------------------------
// End-to-end metrics (untraced run).

MetricMap EndToEnd(const RunResult& run) {
  MetricMap m;
  const ClientResult& t = run.total;
  auto vms = [](double us) { return us / 1000.0; };
  m["ops_per_vsec"] = {Ratio(static_cast<double>(t.ops) * 1e6,
                             static_cast<double>(run.elapsed_us)),
                       "op/vs", t.ops};
  m["update_p50_vms"] = {vms(Percentile(t.update_us, 0.50)), "vms",
                         t.update_us.size()};
  m["update_p99_vms"] = {vms(Percentile(t.update_us, 0.99)), "vms",
                         t.update_us.size()};
  m["read_p50_vms"] = {vms(Percentile(t.read_us, 0.50)), "vms",
                       t.read_us.size()};
  m["read_p99_vms"] = {vms(Percentile(t.read_us, 0.99)), "vms",
                       t.read_us.size()};
  m["durable_p50_vms"] = {vms(Percentile(t.durable_us, 0.50)), "vms",
                          t.durable_us.size()};
  m["durable_p99_vms"] = {vms(Percentile(t.durable_us, 0.99)), "vms",
                          t.durable_us.size()};
  const double forces = static_cast<double>(
      run.after.counters.at("fsd.forces") -
      run.before.counters.at("fsd.forces"));
  m["forces_per_update"] = {Ratio(forces, static_cast<double>(t.updates)),
                            "ratio", t.updates};
  std::uint64_t sectors_written = 0;
  for (std::size_t v = 0; v < run.after.volumes.size(); ++v) {
    sectors_written += run.after.volumes[v].disk.sectors_written -
                       run.before.volumes[v].disk.sectors_written;
  }
  m["disk_bytes_per_user_byte"] = {
      Ratio(static_cast<double>(sectors_written) * sim::kSectorSize,
            static_cast<double>(t.user_bytes)),
      "ratio", t.user_bytes};
  // Volumes recover in parallel: each crash point counts its slowest. The
  // mean over crash points spread evenly through the phase estimates the
  // expected recovery time; a median would jump between the few distinct
  // log states the crash points land on.
  double recovery_sum = 0;
  for (std::uint32_t us : run.recovery_us) {
    recovery_sum += us;
  }
  m["recovery_vms"] = {
      vms(Ratio(recovery_sum, static_cast<double>(run.recovery_us.size()))),
      "vms", run.recovery_us.size()};
  m["op_fail_share"] = {Ratio(static_cast<double>(t.failed),
                              static_cast<double>(t.attempted)),
                        "ratio", t.attempted};
  m["setup_s"] = {SetupSeconds(run.setups), "s", run.setups.size()};
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  m["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1};
  return m;
}

// The end-to-end metrics that are pure functions of the script for a
// single client: the traced run must reproduce them exactly, or the
// decorators perturb what they measure.
const char* const kVirtualMetrics[] = {
    "ops_per_vsec",    "update_p50_vms",  "update_p99_vms",
    "read_p50_vms",    "read_p99_vms",    "durable_p50_vms",
    "durable_p99_vms", "forces_per_update", "disk_bytes_per_user_byte",
    "recovery_vms",
};

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run), named by module, each with the
// end-to-end metric it should move.

// A per-layer metric and the end-to-end metric it should move.
struct LayerDef {
  std::string name;
  const char* maps_to;
};

const char* const kCoreClasses[] = {"create", "open",   "read",   "delete",
                                    "touch",  "list",   "rename", "force"};

std::vector<LayerDef> LayerDefs() {
  std::vector<LayerDef> defs = {
      {"volume.cross_renames_per_kop",
       "forces_per_update, update_p99_vms on xvol-8vol; 0 on meta-1vol"},
      {"volume.forces_per_cross_rename",
       "forces_per_update, ops_per_vsec on xvol-8vol"},
      {"volume.busiest_share", "ops_per_vsec on xvol-8vol"},
      {"volume.self_host_ns_per_op", "(host) router cost per op"},
      {"volume.self_vms_per_op", "ops_per_vsec (router virtual cost)"},
  };
  for (const char* cls : kCoreClasses) {
    const std::string base = std::string("core.") + cls;
    const bool read = base == "core.open" || base == "core.read" ||
                      base == "core.list";
    const char* moves =
        read ? "read_p50_vms/read_p99_vms; bulk-stripe4 for read"
             : "update_p50_vms/update_p99_vms (durable_* for force); "
               "bulk-stripe4 for create";
    defs.push_back({base + "_p50_vms", moves});
    defs.push_back({base + "_p99_vms", moves});
    defs.push_back({base + "_host_ns", "(host) FSD self cost per call"});
  }
  const std::vector<LayerDef> rest = {
      {"core.cpu_vms_share", "ops_per_vsec, all latencies"},
      {"core.self_host_ns_per_op", "(host) FSD cost per op"},
      {"core.self_vms_per_op", "ops_per_vsec"},
      {"commit.updates_per_force",
       "forces_per_update on every workload"},
      {"commit.pages_per_force",
       "disk_bytes_per_user_byte, durable_p99_vms"},
      {"commit.piggyback_share",
       "forces_per_update, durable_p99_vms on meta-3client"},
      {"commit.space_forces_per_kop",
       "forces_per_update, update_p99_vms on meta-3client"},
      {"commit.empty_force_share", "forces_per_update"},
      {"commit.forces_by_tick", "forces_per_update"},
      {"commit.forces_by_client",
       "forces_per_update, durable_p99_vms"},
      {"commit.forces_by_router",
       "forces_per_update on xvol-8vol"},
      {"commit.forces_in_ops",
       "forces_per_update, update_p99_vms"},
      {"log.sectors_per_record",
       "disk_bytes_per_user_byte on meta-1vol"},
      {"log.records_per_force",
       "disk_bytes_per_user_byte, update_p99_vms on meta-1vol"},
      {"log.third_entries_per_kop",
       "update_p99_vms on meta-1vol (FlushThird)"},
      {"ckpt.home_pages_per_kop",
       "recovery_vms, update_p99_vms"},
      {"ckpt.third_flush_fallbacks",
       "update_p99_vms on meta-1vol"},
      {"ckpt.coalesce_share", "update_p99_vms"},
      {"ckpt.live_log_kb_p99", "recovery_vms"},
      {"ckpt.disk_vms_share",
       "update_p99_vms, recovery_vms (FlushThird meta-1vol, "
       "CheckpointBatch meta-3client)"},
      {"nt.disk_reads_per_lookup",
       "read_p99_vms on meta-1vol; ~0 on xvol-8vol"},
      {"sim.requests_per_op", "ops_per_vsec, latencies"},
      {"sim.sectors_per_request",
       "ops_per_vsec on bulk-stripe4"},
      {"sim.seek_vms_per_op", "ops_per_vsec on metadata workloads"},
      {"sim.rot_vms_per_op", "ops_per_vsec on metadata workloads"},
      {"sim.xfer_vms_per_op", "ops_per_vsec on bulk-stripe4"},
      {"sim.busy_max_share", "ops_per_vsec (spindle balance)"},
      {"sim.busy_min_share", "ops_per_vsec (spindle balance)"},
      {"sim.disk_vms.log_force",
       "durable_p99_vms, update_p99_vms"},
      {"sim.disk_vms.ckpt", "update_p99_vms, recovery_vms"},
      {"sim.disk_vms.flush_third", "update_p99_vms"},
      {"sim.disk_vms.create", "update_p50_vms"},
      {"sim.disk_vms.open", "read_p99_vms"},
      {"sim.disk_vms.mount", "recovery_vms"},
      {"sim.host_ns_per_request", "(host) simulator cost"},
      {"recovery.log_kb_replayed", "recovery_vms"},
      {"recovery.pages_replayed", "recovery_vms"},
      {"recovery.disk_reads", "recovery_vms"},
      {"bg.vms_per_kop",
       "update_p99_vms, durable_p99_vms on meta-3client (daemon work)"},
      {"bg.host_ns_per_op", "(host) daemon cost per op"},
      {"workload.gen_host_share", "(host) benchmark overhead"},
      {"workload.op_fail_share", "correctness (must be 0)"},
      {"trace.overhead_share", "(host) tracing overhead"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

struct SpanTotals {
  std::uint64_t count = 0;
  double self_v = 0;
  double self_h = 0;
  std::vector<std::uint32_t> dur_v;
};

struct LayerReport {
  MetricMap metrics;
  // name -> totals, for the self-time table.
  std::map<std::string, SpanTotals> by_name;
  std::map<std::string, SpanTotals> background;  // by DiskTracer class
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// A scripted workload op, as opposed to the Tick() and Checkpoint() calls
// the clients make on the side.
bool IsWorkloadOp(const std::string& name) {
  return StartsWith(name, "op.") && name != "op.tick" &&
         name != "op.checkpoint";
}

LayerReport Layers(const RunResult& run, const SpanRecorder& spans,
                   double reference_host_s) {
  LayerReport rep;
  MetricMap& m = rep.metrics;
  const ClientResult& t = run.total;
  const double ops = static_cast<double>(t.ops);
  const double kops = ops / 1000.0;
  auto counter = [&](const char* name) {
    return static_cast<double>(run.after.counters.at(name) -
                               run.before.counters.at(name));
  };
  const double forces = counter("fsd.forces");

  // Span pass: self time = duration minus what the children cover.
  std::uint64_t op_spans = 0;
  double op_self_v = 0, op_self_h = 0, vol_self_v = 0, vol_self_h = 0;
  std::uint64_t router_force_calls = 0, router_forces = 0;
  std::vector<std::uint64_t> calls_per_volume(run.after.volumes.size(), 0);
  std::uint64_t lookups = 0, lookup_reads = 0;
  double dev_host = 0;
  std::uint64_t dev_requests = 0;
  struct LogWrite {
    std::uint32_t volume;
    std::uint64_t v0;
    std::int64_t h0;
    sim::Lba lba;
    std::uint32_t sectors;
  };
  std::vector<LogWrite> log_writes;
  double bg_v = 0, bg_h = 0;

  for (const auto& thread : spans.threads()) {
    const std::deque<Span>& ss = thread->spans;
    std::vector<double> child_v(ss.size(), 0), child_h(ss.size(), 0);
    std::vector<std::uint32_t> dev_reads(ss.size(), 0);
    for (std::size_t i = 0; i < ss.size(); ++i) {
      const Span& s = ss[i];
      if (s.parent != 0) {
        child_v[s.parent - 1] += static_cast<double>(s.v1 - s.v0);
        child_h[s.parent - 1] += static_cast<double>(s.h1 - s.h0);
      }
    }
    for (std::size_t i = 0; i < ss.size(); ++i) {
      const Span& s = ss[i];
      const std::string name = spans.Name(s.name);
      const double self_v = static_cast<double>(s.v1 - s.v0) - child_v[i];
      const double self_h = static_cast<double>(s.h1 - s.h0) - child_h[i];
      SpanTotals& tot = rep.by_name[name];
      ++tot.count;
      tot.self_v += self_v;
      tot.self_h += self_h;
      tot.dur_v.push_back(static_cast<std::uint32_t>(s.v1 - s.v0));
      const std::string parent =
          s.parent == 0 ? std::string() : spans.Name(ss[s.parent - 1].name);
      if (IsWorkloadOp(name)) {
        ++op_spans;
        op_self_v += self_v;
        op_self_h += self_h;
      } else if (StartsWith(name, "vol.")) {
        vol_self_v += self_v;
        vol_self_h += self_h;
        if (IsWorkloadOp(parent)) {
          ++calls_per_volume[s.volume];
        }
        if (name == "vol.force" && parent == "op.rename") {
          ++router_force_calls;
          router_forces += s.forces;
        }
      } else if (StartsWith(name, "dev.")) {
        ++dev_requests;
        dev_host += static_cast<double>(s.h1 - s.h0);
        if (s.parent == 0 && s.op == 0) {
          SpanTotals& bg = rep.background[spans.Name(s.cls)];
          ++bg.count;
          bg.self_v += static_cast<double>(s.v1 - s.v0);
          bg.self_h += static_cast<double>(s.h1 - s.h0);
          bg_v += static_cast<double>(s.v1 - s.v0);
          bg_h += static_cast<double>(s.h1 - s.h0);
        }
        if (name == "dev.read" && s.parent != 0) {
          ++dev_reads[s.parent - 1];
        }
        const sim::Lba area = run.log_base[s.volume] + 4;
        if (name == "dev.write" && s.sectors > 1 && s.lba >= area &&
            s.lba < run.log_base[s.volume] + run.log_sectors) {
          log_writes.push_back({s.volume, s.v0, s.h0, s.lba, s.sectors});
        }
      }
    }
    for (std::size_t i = 0; i < ss.size(); ++i) {
      const std::string name = spans.Name(ss[i].name);
      if (name == "vol.open" || name == "vol.list" || name == "vol.stat" ||
          name == "vol.touch") {
        ++lookups;
        lookup_reads += dev_reads[i];
      }
    }
  }

  const double cross = static_cast<double>(run.after.cross_renames -
                                           run.before.cross_renames);
  m["volume.cross_renames_per_kop"] = {Ratio(cross, kops), "1/kop", 0};
  m["volume.forces_per_cross_rename"] = {
      Ratio(static_cast<double>(router_force_calls), cross), "ratio", 0};
  std::uint64_t calls = 0, busiest = 0;
  for (std::uint64_t c : calls_per_volume) {
    calls += c;
    busiest = std::max(busiest, c);
  }
  m["volume.busiest_share"] = {
      Ratio(static_cast<double>(busiest), static_cast<double>(calls)),
      "ratio", calls};
  // The op spans also cover the benchmark's own payload generation and
  // read checks (t.gen_ns), which are not router work.
  m["volume.self_host_ns_per_op"] = {
      Ratio(op_self_h - static_cast<double>(t.gen_ns), ops), "ns", op_spans};
  m["volume.self_vms_per_op"] = {Ratio(op_self_v, ops) / 1000.0, "vms",
                                 op_spans};

  for (const char* cls : kCoreClasses) {
    const auto it = rep.by_name.find(std::string("vol.") + cls);
    const SpanTotals empty;
    const SpanTotals& tot = it == rep.by_name.end() ? empty : it->second;
    const std::string base = std::string("core.") + cls;
    m[base + "_p50_vms"] = {Percentile(tot.dur_v, 0.50) / 1000.0, "vms",
                            tot.count};
    m[base + "_p99_vms"] = {Percentile(tot.dur_v, 0.99) / 1000.0, "vms",
                            tot.count};
    m[base + "_host_ns"] = {
        Ratio(tot.self_h, static_cast<double>(tot.count)), "ns", tot.count};
  }
  double cpu = 0, elapsed_sum = 0;
  for (std::size_t v = 0; v < run.after.volumes.size(); ++v) {
    cpu += static_cast<double>(run.after.volumes[v].cpu -
                               run.before.volumes[v].cpu);
    elapsed_sum += static_cast<double>(run.after.volumes[v].clock -
                                       run.before.volumes[v].clock);
  }
  m["core.cpu_vms_share"] = {Ratio(cpu, elapsed_sum), "ratio", 0};
  m["core.self_host_ns_per_op"] = {Ratio(vol_self_h, ops), "ns", 0};
  m["core.self_vms_per_op"] = {Ratio(vol_self_v, ops) / 1000.0, "vms", 0};

  m["commit.updates_per_force"] = {
      Ratio(static_cast<double>(t.updates), forces), "ratio", 0};
  m["commit.pages_per_force"] = {Ratio(counter("fsd.pages_captured"), forces),
                                 "ratio", 0};
  m["commit.piggyback_share"] = {
      t.client_forces == 0
          ? 0
          : std::max(0.0, 1.0 - static_cast<double>(run.forces_client) /
                                    static_cast<double>(t.client_forces)),
      "ratio", t.client_forces};
  m["commit.space_forces_per_kop"] = {
      Ratio(counter("fsd.space_forces"), kops), "1/kop", 0};
  const double empty = counter("fsd.empty_forces");
  m["commit.empty_force_share"] = {Ratio(empty, forces + empty), "ratio", 0};
  m["commit.forces_by_tick"] = {
      Ratio(static_cast<double>(run.forces_tick), kops), "1/kop", 0};
  m["commit.forces_by_client"] = {
      Ratio(static_cast<double>(run.forces_client), kops), "1/kop", 0};
  m["commit.forces_by_router"] = {
      Ratio(static_cast<double>(router_forces), kops), "1/kop", 0};
  m["commit.forces_in_ops"] = {
      Ratio(std::max(0.0, static_cast<double>(run.forces_op) -
                              static_cast<double>(router_forces)),
            kops),
      "1/kop", 0};

  // Log records seen at the device: multi-sector writes into the record
  // area. A change of third between consecutive records is a third entry.
  std::sort(log_writes.begin(), log_writes.end(),
            [](const LogWrite& a, const LogWrite& b) {
              return std::tie(a.volume, a.v0, a.h0) <
                     std::tie(b.volume, b.v0, b.h0);
            });
  const std::uint32_t third = (run.log_sectors - 4) / 3;
  std::uint64_t record_sectors = 0, third_entries = 0;
  for (std::size_t i = 0; i < log_writes.size(); ++i) {
    const LogWrite& w = log_writes[i];
    record_sectors += w.sectors;
    const auto third_of = [&](const LogWrite& x) {
      return std::min<std::uint64_t>(
          (x.lba - (run.log_base[x.volume] + 4)) / third, 2);
    };
    if (i > 0 && log_writes[i - 1].volume == w.volume &&
        third_of(log_writes[i - 1]) != third_of(w)) {
      ++third_entries;
    }
  }
  m["log.sectors_per_record"] = {
      Ratio(static_cast<double>(record_sectors),
            static_cast<double>(log_writes.size())),
      "sectors", log_writes.size()};
  m["log.records_per_force"] = {
      Ratio(static_cast<double>(log_writes.size()), forces), "ratio", 0};
  m["log.third_entries_per_kop"] = {
      Ratio(static_cast<double>(third_entries), kops), "1/kop", 0};

  m["ckpt.home_pages_per_kop"] = {
      Ratio(counter("fsd.ckpt_pages") + counter("fsd.third_flush_pages"),
            kops),
      "1/kop", 0};
  m["ckpt.third_flush_fallbacks"] = {counter("fsd.third_flush_fallbacks"),
                                     "count", 0};
  m["ckpt.coalesce_share"] = {Ratio(counter("fsd.home_writes_coalesced"),
                                    counter("fsd.home_write_requests")),
                              "ratio", 0};
  std::vector<std::uint32_t> live_kb;
  for (std::uint64_t bytes : t.live_log_bytes) {
    live_kb.push_back(static_cast<std::uint32_t>(bytes / 1024));
  }
  m["ckpt.live_log_kb_p99"] = {Percentile(live_kb, 0.99), "KB",
                               live_kb.size()};

  // Disk time per FSD op class over the measured phase.
  std::map<std::string, cedar::obs::OpClassAggregate> phase;
  for (std::size_t v = 0; v < run.after.volumes.size(); ++v) {
    for (const auto& [name, agg] : run.after.volumes[v].aggregates) {
      auto it = run.before.volumes[v].aggregates.find(name);
      AddAggregate(&phase[name], it == run.before.volumes[v].aggregates.end()
                                     ? agg
                                     : agg - it->second);
    }
  }
  double disk_total = 0;
  for (const auto& [name, agg] : phase) {
    disk_total += static_cast<double>(agg.TotalUs());
  }
  auto class_us = [&](const char* cls) {
    auto it = phase.find(cls);
    return it == phase.end() ? 0.0 : static_cast<double>(it->second.TotalUs());
  };
  m["ckpt.disk_vms_share"] = {
      Ratio(class_us("fsd.ckpt") + class_us("fsd.flush_third"), disk_total),
      "ratio", 0};
  m["nt.disk_reads_per_lookup"] = {
      Ratio(static_cast<double>(lookup_reads), static_cast<double>(lookups)),
      "ratio", lookups};

  sim::DiskStats d;
  double busy_max = 0, busy_min = 1;
  for (std::size_t v = 0; v < run.after.volumes.size(); ++v) {
    const VolumeSnapshot& a = run.after.volumes[v];
    const VolumeSnapshot& b = run.before.volumes[v];
    d.reads += a.disk.reads - b.disk.reads;
    d.writes += a.disk.writes - b.disk.writes;
    d.sectors_read += a.disk.sectors_read - b.disk.sectors_read;
    d.sectors_written += a.disk.sectors_written - b.disk.sectors_written;
    d.seek_us += a.disk.seek_us - b.disk.seek_us;
    d.rotational_us += a.disk.rotational_us - b.disk.rotational_us;
    d.transfer_us += a.disk.transfer_us - b.disk.transfer_us;
    const double elapsed = static_cast<double>(a.clock - b.clock);
    for (std::size_t s = 0; s < a.spindles.size(); ++s) {
      const double share = Ratio(
          static_cast<double>(a.spindles[s].busy_us - b.spindles[s].busy_us),
          elapsed);
      busy_max = std::max(busy_max, share);
      busy_min = std::min(busy_min, share);
    }
  }
  const double requests = static_cast<double>(d.reads + d.writes);
  m["sim.requests_per_op"] = {Ratio(requests, ops), "ratio", 0};
  m["sim.sectors_per_request"] = {
      Ratio(static_cast<double>(d.sectors_read + d.sectors_written), requests),
      "sectors", 0};
  m["sim.seek_vms_per_op"] = {
      Ratio(static_cast<double>(d.seek_us), ops) / 1000.0, "vms", 0};
  m["sim.rot_vms_per_op"] = {
      Ratio(static_cast<double>(d.rotational_us), ops) / 1000.0, "vms", 0};
  m["sim.xfer_vms_per_op"] = {
      Ratio(static_cast<double>(d.transfer_us), ops) / 1000.0, "vms", 0};
  m["sim.busy_max_share"] = {busy_max, "ratio", 0};
  m["sim.busy_min_share"] = {busy_min, "ratio", 0};
  for (const char* cls :
       {"log_force", "ckpt", "flush_third", "create", "open"}) {
    m[std::string("sim.disk_vms.") + cls] = {
        Ratio(class_us((std::string("fsd.") + cls).c_str()), kops) / 1000.0,
        "vms/kop", 0};
  }
  auto mount = run.mount_aggregates.find("fsd.mount");
  m["sim.disk_vms.mount"] = {
      mount == run.mount_aggregates.end()
          ? 0
          : static_cast<double>(mount->second.TotalUs()) / 1000.0,
      "vms", 0};
  m["sim.host_ns_per_request"] = {
      Ratio(dev_host, static_cast<double>(dev_requests)), "ns", dev_requests};

  m["recovery.log_kb_replayed"] = {
      static_cast<double>(run.live_log_at_crash) / 1024.0, "KB", 0};
  m["recovery.pages_replayed"] = {static_cast<double>(run.pages_replayed),
                                  "count", 0};
  m["recovery.disk_reads"] = {static_cast<double>(run.mount_disk_reads),
                              "count", 0};
  m["bg.vms_per_kop"] = {Ratio(bg_v, kops) / 1000.0, "vms/kop", 0};
  m["bg.host_ns_per_op"] = {Ratio(bg_h, ops), "ns", 0};
  m["workload.gen_host_share"] = {
      Ratio(static_cast<double>(t.gen_ns) * 1e-9, run.phase_host_s), "ratio",
      0};
  m["workload.op_fail_share"] = {
      Ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
      "ratio", t.attempted};
  m["trace.overhead_share"] = {
      Ratio(run.phase_host_s, reference_host_s) - 1.0, "ratio", 0};
  return rep;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) + "}";
    first = false;
  }
  return out + "}";
}

void PrintEndToEnd(const MetricMap& m) {
  std::printf("\n%-28s %16s  %-6s %s\n", "end-to-end metric", "value", "unit",
              "samples");
  for (const auto& [name, metric] : m) {
    std::printf("%-28s %16.6f  %-6s %llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
}

void PrintLayers(const std::string& workload, const LayerReport& rep,
                 double ops) {
  std::printf("\nPer-layer report, %s (traced run)\n", workload.c_str());
  std::printf("%-34s %14s  %-8s %s\n", "layer metric", "value", "unit",
              "moves");
  for (const LayerDef& def : LayerDefs()) {
    const Metric& metric = rep.metrics.at(def.name);
    std::printf("%-34s %14.6f  %-8s %s\n", def.name.c_str(), metric.value,
                metric.unit.c_str(), def.maps_to);
  }
  std::printf("\nSelf time by span (measured phase; per measured op)\n");
  std::printf("%-22s %10s %14s %16s\n", "span", "count", "self vms/op",
              "self host ns/op");
  for (const auto& [name, tot] : rep.by_name) {
    std::printf("%-22s %10llu %14.6f %16.1f\n", name.c_str(),
                static_cast<unsigned long long>(tot.count),
                Ratio(tot.self_v, ops) / 1000.0, Ratio(tot.self_h, ops));
  }
  std::printf("\nBackground roots (daemon-thread device requests)\n");
  if (rep.background.empty()) {
    std::printf("  none: every device request ran inside a client call\n");
  }
  for (const auto& [cls, tot] : rep.background) {
    std::printf("  %-20s %10llu requests %14.6f vms/op %12.1f host ns/op\n",
                cls.c_str(), static_cast<unsigned long long>(tot.count),
                Ratio(tot.self_v, ops) / 1000.0, Ratio(tot.self_h, ops));
  }
}

std::string FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

int Main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which a
  // set-up sometimes reused the memory of the previous rig's simulated
  // disks and sometimes page-faulted fresh memory for them: set-ups of the
  // same workload then differed threefold. Every disk image (13 MB and up)
  // is now mapped fresh by every set-up.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  for (int i = 1; i < argc; i += 2) {
    static const char* const kFlags[] = {"--workload", "--seed",    "--seconds",
                                         "--trace",    "--out-dir", "--commit"};
    bool known = false;
    for (const char* f : kFlags) {
      known = known || std::strcmp(argv[i], f) == 0;
    }
    if (!known || i + 1 >= argc) {
      std::fprintf(stderr, "usage: cedar_perfbench --workload <name> --seed "
                           "<n> --seconds <s> --trace <0|1> "
                           "[--out-dir <dir>] [--commit <id>]\n");
      return 2;
    }
  }
  const std::string workload = FlagValue(argc, argv, "--workload", "");
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds =
      std::strtod(FlagValue(argc, argv, "--seconds", "10").c_str(), nullptr);
  const bool traced = FlagValue(argc, argv, "--trace", "0") == "1";
  const std::string out_dir = FlagValue(argc, argv, "--out-dir", "");
  // The traced run executes the script twice (reference, then traced) and
  // keeps every span in memory, so it measures a quarter as many ops.
  const auto measured_ops = static_cast<std::uint64_t>(std::max(
      1.0, seconds * spec->ops_per_second / (traced ? 4.0 : 1.0)));

  // Inputs first: generating the scripts is not part of any timing.
  const std::int64_t g0 = HostNowNs();
  Namespace ns;
  std::vector<ClientScript> scripts;
  GenerateScripts(*spec, seed, measured_ops, &ns, &scripts);
  const double script_gen_s = static_cast<double>(HostNowNs() - g0) * 1e-9;

  std::printf("workload %s seed %llu: %u volume(s) x %u spindle(s), %u "
              "client(s), %zu names, %llu measured ops/client\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              spec->volumes, spec->spindles, spec->clients, ns.names.size(),
              static_cast<unsigned long long>(measured_ops));
  std::fflush(stdout);

  RunResult run = RunOnce(*spec, ns, scripts, /*timed_setups=*/!traced,
                          nullptr);
  MetricMap e2e = EndToEnd(run);
  bool correct = run.total.failed == 0;
  std::uint64_t attempted = run.total.attempted;
  std::uint64_t failed = run.total.failed;
  std::vector<std::string> failures = run.total.failures;

  MetricMap layers;
  if (traced) {
    SpanRecorder spans;
    RunResult traced_run = RunOnce(*spec, ns, scripts,
                                   /*timed_setups=*/false, &spans);
    const MetricMap traced_e2e = EndToEnd(traced_run);
    attempted += traced_run.total.attempted;
    failed += traced_run.total.failed;
    correct = correct && traced_run.total.failed == 0;
    failures.insert(failures.end(), traced_run.total.failures.begin(),
                    traced_run.total.failures.end());
    if (spec->clients == 1) {
      for (const char* name : kVirtualMetrics) {
        if (traced_e2e.at(name).value != e2e.at(name).value) {
          correct = false;
          ++failed;
          failures.push_back(std::string("traced run changed ") + name + ": " +
                             JsonNumber(e2e.at(name).value) + " -> " +
                             JsonNumber(traced_e2e.at(name).value));
        }
      }
    }
    LayerReport rep = Layers(traced_run, spans, run.phase_host_s);
    PrintLayers(spec->name, rep, static_cast<double>(traced_run.total.ops));
    layers = rep.metrics;
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + spec->name + ".spans.tsv";
      if (spans.WriteTsv(path)) {
        std::printf("\n%zu spans written to %s\n", spans.SpanCount(),
                    path.c_str());
      }
    }
  }
  PrintEndToEnd(e2e);
  std::vector<double> setup_cpu, reference;
  std::printf("set-up samples (s, process CPU time, set-up/reference loop):");
  for (const SetupSample& s : run.setups) {
    std::printf(" %.4f/%.4f", s.setup_s, s.reference_s);
    setup_cpu.push_back(s.setup_s);
    reference.push_back(s.reference_s);
  }
  std::printf("\n");
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::size_t populate_versions = 0;
  for (const ClientScript& script : scripts) {
    populate_versions += static_cast<std::size_t>(
        std::count_if(script.populate.begin(), script.populate.end(),
                      [](const Op& op) { return op.kind == OpKind::kCreate; }));
  }
  std::string nt_pages;
  for (std::uint64_t pages : run.nt_pages) {
    nt_pages += (nt_pages.empty() ? "" : ", ") + std::to_string(pages);
  }
  char context[1200];
  std::snprintf(
      context, sizeof(context),
      "{\"seed\": %llu, \"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"git_commit\": %s, \"volumes\": %u, \"spindles\": %u, "
      "\"client_threads\": %u, \"files\": %u, \"names\": %zu, "
      "\"populate_versions\": %zu, \"nt_pages\": [%s], "
      "\"cache_frames\": %zu, \"measured_ops\": %llu, "
      "\"warmup_ops\": %zu, \"script_gen_s\": %s, \"phase_host_s\": %s, "
      "\"setup_cpu_s\": %s, \"reference_loop_s\": %s}",
      static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(FlagValue(argc, argv, "--commit", "unknown")).c_str(),
      spec->volumes, spec->spindles, spec->clients,
      spec->tenants * spec->dirs_per_tenant * spec->slots_per_dir,
      ns.names.size(), populate_versions, nt_pages.c_str(),
      spec->fsd.cache_frames,
      static_cast<unsigned long long>(measured_ops * spec->clients),
      scripts[0].warmup * spec->clients, JsonNumber(script_gen_s).c_str(),
      JsonNumber(run.phase_host_s).c_str(),
      JsonNumber(Median(setup_cpu)).c_str(),
      JsonNumber(Median(reference)).c_str());
  std::printf("\n{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"context\": %s, \"e2e\": %s, "
              "\"layers\": %s}\n",
              JsonString(spec->name).c_str(), correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), context,
              MetricsJson(e2e).c_str(), MetricsJson(layers).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
