// Multi-client FSD: N threads hammer one file system through the public
// API while the group-commit daemon forces the log in the background.
//
// These tests carry the "concurrency" ctest label and are the workload the
// tsan CMake preset runs (ctest --preset tsan): every cross-thread access
// here is exercised under ThreadSanitizer in CI, including a crash cut
// during parallel commit. The determinism pin at the bottom is the
// strongest property: virtual-time I/O accounting must not depend on how
// many threads issued the (identically ordered) operations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace cedar::core {
namespace {

constexpr int kThreads = 8;

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

FsdConfig DaemonConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  config.commit.daemon = true;
  return config;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  explicit ConcurrencyTest(FsdConfig config = DaemonConfig())
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, config) {
    CEDAR_CHECK_OK(fsd_.Format());
  }

  void ExpectClean() {
    auto report = fsd_.Fsck();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->violations(), 0u) << report->Summary();
    EXPECT_TRUE(fsd_.CheckNameTableInvariants().ok());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Fsd fsd_;
};

// A reusable all-threads barrier (std::barrier minus the libstdc++ TSan
// false positives around its completion step).
class Barrier {
 public:
  explicit Barrier(int count) : count_(count), remaining_(count) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t round = round_;
    if (--remaining_ == 0) {
      remaining_ = count_;
      ++round_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return round_ != round; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int count_;
  int remaining_;
  std::uint64_t round_ = 0;
};

TEST_F(ConcurrencyTest, MixedStressStaysConsistent) {
  // Eight clients: per-thread private names plus a shared contended set,
  // mixed create/write/read/touch/delete/force. The assertion is the
  // invariant checker afterwards, plus TSan when run under the tsan preset.
  constexpr int kRounds = 30;
  std::atomic<int> failures{0};
  auto worker = [&](int tid) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string mine = std::string("t").append(std::to_string(tid)) +
                               ".own." + std::to_string(r % 5);
      const std::string shared = "shared." + std::to_string(r % 3);
      auto contents = Bytes(700 + 64 * tid, static_cast<std::uint8_t>(tid));
      if (!fsd_.CreateFile(mine, contents).ok()) {
        ++failures;
      }
      auto handle = fsd_.Open(mine);
      if (handle.ok()) {
        std::vector<std::uint8_t> back(contents.size());
        if (!fsd_.Read(*handle, 0, back).ok() || back != contents) {
          ++failures;
        }
        (void)fsd_.Close(*handle);
      } else {
        ++failures;
      }
      // Contended name: creates race with deletes/touches, so any
      // individual op may lose (kNotFound) — consistency is what matters.
      (void)fsd_.CreateFile(shared, Bytes(128, 9));
      (void)fsd_.Touch(shared);
      if (r % 7 == tid % 7) {
        (void)fsd_.DeleteFile(shared);
      }
      if (r % 5 == 0) {
        if (!fsd_.Force().ok()) {
          ++failures;
        }
      }
      if (r % 4 == 0) {
        (void)fsd_.List(std::string("t").append(std::to_string(tid)));
      }
      if (r % 6 == 0) {
        (void)fsd_.DeleteFile(mine);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fsd_.Force().ok());
  ExpectClean();
  ASSERT_TRUE(fsd_.Shutdown().ok());
  ASSERT_TRUE(fsd_.Mount().ok());
  ExpectClean();
}

TEST_F(ConcurrencyTest, GroupCommitPiggybacksConcurrentForces) {
  // The paper's group-commit claim: when several clients wait for a force,
  // one log write commits them all. All threads mutate, meet at a barrier,
  // then force together — the daemon should satisfy the batch with far
  // fewer log writes than there were Force() calls.
  //
  // Whether a given Force() is counted as piggybacked depends on whether
  // it arrives before or after the group's (virtually instant) log write
  // publishes, so rounds run until at least one rendezvous is observed;
  // the sharing invariants below hold for every schedule.
  //
  // All of a round's names hash to one name shard, so the clients also
  // queue on that shard's lock on their way to the shared force.
  auto shared_shard_name = [](int tid, int round) {
    const std::size_t shard = round % Fsd::kNameShardCount;
    for (int k = 0;; ++k) {
      std::string name = std::string("t").append(std::to_string(tid)) +
                         ".r" + std::to_string(round) + "." +
                         std::to_string(k);
      if (Fsd::ShardOf(name) == shard) {
        return name;
      }
    }
  };
  constexpr int kMaxRounds = 200;
  int rounds = 0;
  Barrier barrier(kThreads);
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  auto worker = [&](int tid) {
    for (int r = 0; r < kMaxRounds; ++r) {
      if (!fsd_.CreateFile(shared_shard_name(tid, r), Bytes(256, 1)).ok()) {
        ++failures;
      }
      barrier.Arrive();
      if (!fsd_.Force().ok()) {
        ++failures;
      }
      barrier.Arrive();
      if (tid == 0) {
        ++rounds;
        if (fsd_.SnapshotMetrics().CounterValue("commit.piggybacked") > 0) {
          done.store(true, std::memory_order_relaxed);
        }
      }
      barrier.Arrive();  // all threads see tid 0's verdict for this round
      if (done.load(std::memory_order_relaxed)) {
        break;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  const obs::MetricsSnapshot m = fsd_.SnapshotMetrics();
  const std::uint64_t force_calls =
      static_cast<std::uint64_t>(kThreads) * rounds;
  const std::uint64_t piggybacked = m.CounterValue("commit.piggybacked");
  const std::uint64_t force_requests = m.CounterValue("commit.force_requests");
  EXPECT_GT(piggybacked, 0u);
  // Every round produced kThreads Force() calls but the daemon needed at
  // most a couple of log writes for them (one force covers the whole
  // barrier generation; a straggler may trigger one more).
  EXPECT_LT(m.CounterValue("commit.rounds"), force_calls / 2);
  // A Force() arriving after the group's write already published returns
  // without touching either counter, so <= rather than ==.
  EXPECT_LE(force_requests + piggybacked, force_calls);
  EXPECT_GE(force_requests, 1u);
  ExpectClean();
}

TEST_F(ConcurrencyTest, DaemonHandlesDeadlineForces) {
  // The half-second deadline in daemon mode: the op that notices the
  // expired timer hands the force to the daemon and blocks until it is
  // durable, so the pending set drains without any explicit Force().
  ASSERT_TRUE(fsd_.CreateFile("deadline.test", Bytes(64, 2)).ok());
  EXPECT_TRUE(fsd_.HasPendingUpdates());
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Tick().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
  const obs::MetricsSnapshot m = fsd_.SnapshotMetrics();
  EXPECT_GE(m.CounterValue("commit.rounds"), 1u);
  EXPECT_GE(m.CounterValue("fsd.forces"), 1u);

  // And via an ordinary operation rather than Tick().
  ASSERT_TRUE(fsd_.Touch("deadline.test").ok());
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Stat("deadline.test").ok());  // Stat never forces
  ASSERT_TRUE(fsd_.Open("deadline.test").ok());  // Open hits the deadline
  EXPECT_FALSE(fsd_.HasPendingUpdates());
  ExpectClean();
}

TEST_F(ConcurrencyTest, FailedRoundIsRetriedByTheNextForce) {
  // A round whose log append fails re-queues what it captured, so its
  // updates are not durable: while the log cannot be written every Force()
  // runs a round and fails, and once it can, the next Force() appends them.
  ASSERT_TRUE(fsd_.CreateFile("retry.test", Bytes(64, 6)).ok());
  const sim::Lba log_base = fsd_.layout().log_base;
  const std::uint32_t log_sectors = DaemonConfig().log_sectors;
  for (std::uint32_t i = 0; i < log_sectors; ++i) {
    disk_.InjectPersistentFault(log_base + i, sim::FaultMode::kWriteFail);
  }
  EXPECT_FALSE(fsd_.Force().ok());
  EXPECT_FALSE(fsd_.Force().ok());
  EXPECT_TRUE(fsd_.HasPendingUpdates());
  const std::uint64_t failed_rounds =
      fsd_.SnapshotMetrics().CounterValue("commit.rounds");
  EXPECT_EQ(failed_rounds, 2u);

  for (std::uint32_t i = 0; i < log_sectors; ++i) {
    disk_.ClearPersistentFault(log_base + i);
  }
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
  EXPECT_EQ(fsd_.SnapshotMetrics().CounterValue("commit.rounds"),
            failed_rounds + 1);

  // The retried round made the create durable: it survives a crash.
  disk_.CrashNow();
  disk_.Reopen();
  Fsd recovered(&disk_, DaemonConfig());
  ASSERT_TRUE(recovered.Mount().ok());
  EXPECT_TRUE(recovered.Open("retry.test").ok());
}

TEST_F(ConcurrencyTest, ConcurrentReadersShareTheTree) {
  constexpr int kFiles = 24;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        fsd_.CreateFile("lib." + std::to_string(i), Bytes(900, 3)).ok());
  }
  ASSERT_TRUE(fsd_.Force().ok());
  std::atomic<int> failures{0};
  auto reader = [&](int tid) {
    // Open/Close partitions are per-thread: open state is keyed by file
    // uid, so Close() by one thread would invalidate another thread's
    // handle to the same file. Stat/List below do hit shared names.
    const int slice = kFiles / kThreads;
    for (int r = 0; r < 40; ++r) {
      const std::string name =
          "lib." + std::to_string(tid * slice + r % slice);
      auto handle = fsd_.Open(name);
      if (!handle.ok()) {
        ++failures;
        continue;
      }
      std::vector<std::uint8_t> out(900);
      if (!fsd_.Read(*handle, 0, out).ok()) {
        ++failures;
      }
      if (!fsd_.Stat("lib." + std::to_string((tid + r) % kFiles)).ok()) {
        ++failures;
      }
      auto listing = fsd_.List("lib.");
      if (!listing.ok() || listing->size() != kFiles) {
        ++failures;
      }
      (void)fsd_.Close(*handle);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(reader, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ExpectClean();
}

TEST_F(ConcurrencyTest, ShutdownMountCycleRestartsDaemon) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(
        fsd_.CreateFile("cycle." + std::to_string(cycle), Bytes(64, 4)).ok());
    ASSERT_TRUE(fsd_.Force().ok());
    ASSERT_TRUE(fsd_.Shutdown().ok());
    ASSERT_TRUE(fsd_.Mount().ok());
  }
  // Daemon still live after the cycles: Force() must complete.
  ASSERT_TRUE(fsd_.CreateFile("cycle.final", Bytes(64, 5)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  auto listing = fsd_.List("cycle.");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 4u);
  ExpectClean();
}

// Returns a name that hashes to `shard` (deterministic linear probe).
std::string NameInShard(std::size_t shard, std::string_view stem) {
  for (int salt = 0;; ++salt) {
    std::string candidate =
        std::string(stem) + "." + std::to_string(salt);
    if (Fsd::ShardOf(candidate) == shard) {
      return candidate;
    }
  }
}

TEST_F(ConcurrencyTest, DisjointNamesSaturation) {
  // One thread per shard, each hammering a name that hashes to its own
  // shard: with no shard collisions every op runs in parallel, and each
  // name's version chain must account for every single operation — a lost
  // update (two ops merged, one dropped) leaves it short.
  constexpr int kRounds = 25;
  std::vector<std::string> names;
  names.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    names.push_back(NameInShard(static_cast<std::size_t>(t), "sat"));
  }
  std::atomic<int> failures{0};
  auto worker = [&](int tid) {
    for (int r = 0; r < kRounds; ++r) {
      // Each create stacks a new version; versions count lost updates.
      if (!fsd_.CreateFile(names[tid], Bytes(200, static_cast<std::uint8_t>(
                                                      tid))).ok()) {
        ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    // Exactly kRounds creates landed on names[t]: nothing lost, nothing
    // double-counted.
    auto info = fsd_.Stat(names[t]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, static_cast<std::uint32_t>(kRounds));
  }
  ASSERT_TRUE(fsd_.Force().ok());
  ExpectClean();
}

TEST_F(ConcurrencyTest, CrossShardRenameCreateInterleaving) {
  // Opposing renames shuttle two version chains between names in different
  // shards while other threads create in those same shards. Renames take
  // both shard locks in index order, so opposing pairs must not deadlock;
  // the conserved quantity is the total number of name-table entries in
  // the two chains (each successful rename moves one entry).
  const std::string left = NameInShard(2, "left");
  const std::string right = NameInShard(11, "right");
  ASSERT_NE(Fsd::ShardOf(left), Fsd::ShardOf(right));
  ASSERT_TRUE(fsd_.CreateFile(left, Bytes(256, 1)).ok());
  ASSERT_TRUE(fsd_.CreateFile(right, Bytes(256, 2)).ok());

  constexpr int kRounds = 40;
  std::atomic<int> create_failures{0};
  auto shuttler = [&](std::string_view from, std::string_view to) {
    for (int r = 0; r < kRounds; ++r) {
      // A rename may lose the race to the opposing shuttler (kNotFound
      // when the source moved away) — conservation is what matters.
      (void)fsd_.Rename(from, to);
    }
  };
  auto creator = [&](int tid) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string name = NameInShard(tid % 2 == 0 ? 2 : 11,
                                           "mk.t" + std::to_string(tid) +
                                               "." + std::to_string(r));
      if (!fsd_.CreateFile(name, Bytes(64, 7)).ok()) {
        ++create_failures;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(shuttler, left, right);
  threads.emplace_back(shuttler, right, left);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(creator, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(create_failures.load(), 0);

  // Entry conservation: the two chains still hold exactly two entries
  // between them (List reports one FileInfo per name-table entry).
  auto count_entries = [&](std::string_view name) -> std::size_t {
    auto listing = fsd_.List(name);
    CEDAR_CHECK(listing.ok());
    std::size_t n = 0;
    for (const fs::FileInfo& info : *listing) {
      if (info.name == name) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_entries(left) + count_entries(right), 2u);

  // Handles survive renames: the uid is stable, and the open state tracks
  // the new name.
  auto whoever = fsd_.Stat(left).ok() ? left : right;
  auto handle = fsd_.Open(whoever);
  ASSERT_TRUE(handle.ok());
  const std::string other = (whoever == left) ? right : left;
  ASSERT_TRUE(fsd_.Rename(whoever, other).ok());
  std::vector<std::uint8_t> out(64);
  EXPECT_TRUE(fsd_.Read(*handle, 0, out).ok());
  ASSERT_TRUE(fsd_.Close(*handle).ok());

  ASSERT_TRUE(fsd_.Force().ok());
  ExpectClean();
  ASSERT_TRUE(fsd_.Shutdown().ok());
  ASSERT_TRUE(fsd_.Mount().ok());
  ExpectClean();
}

// ---------------------------------------------------------------------------
// Crash during PARALLEL commit: several client threads create and force
// concurrently (per-shard locks, commit daemon, two-phase force) when the
// disk dies at an arbitrary write. Recovery must be exactly as strong as in
// the serial world: every create whose Force() was acknowledged before the
// crash is present and intact afterwards, and fsck finds no violations —
// regardless of which thread's write the cut landed on.

TEST(ParallelCommitCrashTest, AcknowledgedCreatesSurviveCrash) {
  FsdConfig config = DaemonConfig();
  config.nt_pages = 64;
  config.cache_frames = 512;
  constexpr int kWorkers = 4;
  constexpr int kRoundsPerWorker = 12;

  bool any_crashed = false;
  for (const std::uint64_t cut : {25ull, 60ull, 110ull, 170ull}) {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    std::vector<std::string> acknowledged;
    std::mutex ack_mu;
    {
      Fsd fsd(&disk, config);
      ASSERT_TRUE(fsd.Format().ok());
      sim::CrashPlan plan;
      plan.at_write_index = cut;
      disk.ArmCrash(plan);
      auto worker = [&](int tid) {
        for (int i = 0; i < kRoundsPerWorker; ++i) {
          const std::string name =
              "par.t" + std::to_string(tid) + "." + std::to_string(i);
          const auto seed = static_cast<std::uint8_t>(16 * tid + i);
          if (!fsd.CreateFile(name, Bytes(600, seed)).ok()) {
            return;  // the cut landed on (or before) this create's write
          }
          if (!fsd.Force().ok()) {
            return;  // force did not complete — no durability claim
          }
          std::lock_guard<std::mutex> lock(ack_mu);
          acknowledged.push_back(name);
        }
      };
      std::vector<std::thread> threads;
      threads.reserve(kWorkers);
      for (int t = 0; t < kWorkers; ++t) {
        threads.emplace_back(worker, t);
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
    if (!disk.crashed()) {
      continue;  // cut beyond this run's write count — nothing to verify
    }
    any_crashed = true;

    disk.Reopen();
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.Mount().ok()) << "cut=" << cut;
    auto fsck = fsd.Fsck();
    ASSERT_TRUE(fsck.ok()) << "cut=" << cut;
    EXPECT_TRUE(fsck->Clean()) << "cut=" << cut << ": " << fsck->Summary();
    for (const std::string& name : acknowledged) {
      auto handle = fsd.Open(name);
      ASSERT_TRUE(handle.ok())
          << "cut=" << cut << ": acknowledged " << name << " lost";
      // seed reconstructible from the name: par.t<tid>.<i>
      const int tid = name[5] - '0';
      const int i = std::stoi(name.substr(7));
      std::vector<std::uint8_t> out(handle->byte_size);
      ASSERT_TRUE(fsd.Read(*handle, 0, out).ok()) << name;
      EXPECT_EQ(out, Bytes(600, static_cast<std::uint8_t>(16 * tid + i)))
          << "cut=" << cut << ": " << name << " corrupt after recovery";
    }
  }
  EXPECT_TRUE(any_crashed) << "no cut landed inside the parallel workload";
}

// ---------------------------------------------------------------------------
// Determinism pin: the same serialized operation order must produce the
// same virtual-time I/O accounting no matter how many threads issue it.
// Threads take turns through a turnstile (round-robin by operation index),
// and forces complete synchronously inside the owning turn, so the op
// stream seen by the disk is identical to the single-threaded run.

struct WorkloadFootprint {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t forces = 0;
  std::uint64_t pages_captured = 0;
  std::uint64_t fsck_violations = 0;
  std::uint64_t fsck_warnings = 0;
  std::uint64_t files = 0;

  bool operator==(const WorkloadFootprint&) const = default;
};

// One deterministic op of the pinned workload; `i` is the global op index.
void PinnedOp(Fsd& fsd, int i) {
  const std::string name = "pin." + std::to_string(i % 7);
  switch (i % 5) {
    case 0:
      (void)fsd.CreateFile(name, Bytes(300 + 64 * (i % 3),
                                       static_cast<std::uint8_t>(i)));
      break;
    case 1:
      (void)fsd.Touch(name);
      break;
    case 2:
      if (auto handle = fsd.Open(name); handle.ok()) {
        std::vector<std::uint8_t> out(
            std::min<std::uint64_t>(handle->byte_size, 128));
        if (!out.empty()) {
          (void)fsd.Read(*handle, 0, out);
        }
        (void)fsd.Close(*handle);
      }
      break;
    case 3:
      (void)fsd.Force();
      break;
    case 4:
      (void)fsd.DeleteFile(name);
      break;
  }
}

WorkloadFootprint RunPinnedWorkload(int threads, int total_ops) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  Fsd fsd(&disk, DaemonConfig());
  CEDAR_CHECK_OK(fsd.Format());
  disk.ResetStats();

  if (threads <= 1) {
    for (int i = 0; i < total_ops; ++i) {
      PinnedOp(fsd, i);
    }
  } else {
    // Turnstile: op i runs on thread i % threads, strictly in i order.
    std::mutex mu;
    std::condition_variable cv;
    int next = 0;
    auto worker = [&](int tid) {
      for (int i = tid; i < total_ops; i += threads) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return next == i; });
        PinnedOp(fsd, i);
        ++next;
        cv.notify_all();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  WorkloadFootprint footprint;
  const sim::DiskStats disk_stats = disk.stats();
  footprint.reads = disk_stats.reads;
  footprint.writes = disk_stats.writes;
  footprint.sectors_read = disk_stats.sectors_read;
  footprint.sectors_written = disk_stats.sectors_written;
  const obs::MetricsSnapshot m = fsd.SnapshotMetrics();
  footprint.forces = m.CounterValue("fsd.forces");
  footprint.pages_captured = m.CounterValue("fsd.pages_captured");
  auto report = fsd.Fsck();
  CEDAR_CHECK(report.ok());
  footprint.fsck_violations = report->violations();
  footprint.fsck_warnings = report->warnings();
  auto listing = fsd.List("");
  CEDAR_CHECK(listing.ok());
  footprint.files = listing->size();
  return footprint;
}

TEST(ConcurrencyDeterminismTest, PinnedWorkloadFootprintIsThreadInvariant) {
  constexpr int kOps = 120;
  const WorkloadFootprint one = RunPinnedWorkload(1, kOps);
  EXPECT_EQ(one.fsck_violations, 0u);
  const WorkloadFootprint four = RunPinnedWorkload(4, kOps);
  const WorkloadFootprint eight = RunPinnedWorkload(kThreads, kOps);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

// The tracer's scope path without its mutex: threads intern new op names
// (each name's first push takes the mutex and publishes it to the
// lock-free index) while others find them there, nest scopes, and record
// under them. Every request must land in its innermost scope's class and
// its thread's root class, and each thread's stack entry must survive a
// second tracer used in between.
TEST(TracerConcurrencyTest, ScopesInternAndAttributeAcrossThreads) {
  constexpr int kTracerThreads = 4;
  constexpr int kRounds = 2000;
  constexpr int kNames = 40;
  obs::DiskTracer tracer;
  std::vector<std::thread> threads;
  threads.reserve(kTracerThreads);
  for (int t = 0; t < kTracerThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      const std::string root = "root." + std::to_string(t);
      obs::DiskTracer other;
      for (int r = 0; r < kRounds; ++r) {
        obs::ScopedOp outer(&tracer, root);
        const std::string inner = "op." + std::to_string((r + t) % kNames);
        {
          obs::ScopedOp op(&tracer, inner);
          EXPECT_EQ(tracer.CurrentOp(), inner);
          tracer.Record(static_cast<std::uint64_t>(r), 1,
                        obs::DiskOpKind::kRead, 0, 1, 2, 3, 4);
        }
        if (r % 100 == 0) {
          // Another tracer's scope in between: it claims or adds an entry
          // of its own and leaves this tracer's stack alone.
          obs::ScopedOp elsewhere(&other, "other");
          EXPECT_EQ(other.CurrentOp(), "other");
        }
        EXPECT_EQ(tracer.CurrentOp(), root);
      }
      EXPECT_EQ(tracer.CurrentOp(), "(none)");
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(tracer.total_events(),
            static_cast<std::uint64_t>(kTracerThreads) * kRounds);
  std::uint64_t inner_total = 0;
  for (int n = 0; n < kNames; ++n) {
    inner_total += tracer.AggregateFor("op." + std::to_string(n)).requests;
  }
  EXPECT_EQ(inner_total, static_cast<std::uint64_t>(kTracerThreads) * kRounds);
  for (int t = 0; t < kTracerThreads; ++t) {
    EXPECT_EQ(tracer.RootAggregateFor("root." + std::to_string(t)).requests,
              static_cast<std::uint64_t>(kRounds));
  }
}

// The copy-on-write sector store shares chunks between disks: one thread
// writes disk A while another keeps snapshotting A, restoring the snapshot
// into disk B, writing B and dropping the snapshot. A writes the even
// sectors of four chunks and B the odd ones. B writes once while the
// snapshot lives and once, in another chunk, after it is dropped, so each
// thread in turn clones a chunk the other then writes in place. Afterwards
// each disk holds exactly its own writes.
TEST(SectorStoreConcurrencyTest, SnapshotRestoreAcrossDisksKeepsWritesApart) {
  constexpr sim::Lba kChunk = sim::SectorStore::kChunkSectors;
  constexpr sim::Lba kSpan = 4 * kChunk;
  constexpr int kWritesToA = 4000;
  constexpr int kRoundsOnB = 400;
  const auto sector = [](int writer, sim::Lba lba, int version) {
    std::vector<std::uint8_t> out(sim::kSectorSize);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(writer * 101 + lba * 7 +
                                         version * 13 + i);
    }
    return out;
  };
  // B's two odd sectors in round `round`, two chunks apart.
  const auto b_sector = [&](int round, int which) {
    const auto r = static_cast<sim::Lba>(round);
    return ((r + 2 * static_cast<sim::Lba>(which)) % 4) * kChunk +
           2 * (r / 4 % (kChunk / 2)) + 1;
  };
  sim::VirtualClock clock_a;
  sim::VirtualClock clock_b;
  sim::SimDisk a(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_a);
  sim::SimDisk b(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_b);

  std::vector<int> a_version(kSpan, -1);
  std::thread writer([&] {
    for (int i = 0; i < kWritesToA; ++i) {
      const sim::Lba lba = (2 * static_cast<sim::Lba>(i)) % kSpan;
      CEDAR_CHECK_OK(a.Write(lba, sector(1, lba, i)));
      a_version[lba] = i;
    }
  });
  sim::DiskSnapshot last;
  for (int round = 0; round < kRoundsOnB; ++round) {
    {
      const sim::DiskSnapshot snapshot = a.Snapshot();
      b.Restore(snapshot);
      CEDAR_CHECK_OK(
          b.Write(b_sector(round, 0), sector(2, b_sector(round, 0), round)));
      if (round == kRoundsOnB - 1) {
        last = snapshot;
      }
    }
    CEDAR_CHECK_OK(
        b.Write(b_sector(round, 1), sector(2, b_sector(round, 1), round)));
  }
  writer.join();

  // A: its own final writes on the even sectors, nothing of B's.
  std::vector<std::uint8_t> out(sim::kSectorSize);
  for (sim::Lba lba = 0; lba < kSpan; ++lba) {
    ASSERT_TRUE(a.Read(lba, out).ok());
    EXPECT_EQ(out, lba % 2 == 0 ? sector(1, lba, a_version[lba])
                                : std::vector<std::uint8_t>(out.size(), 0))
        << lba;
  }
  // B: the last snapshot of A with B's last two writes on top, which the
  // snapshot itself never saw.
  sim::VirtualClock clock_c;
  sim::SimDisk c(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_c);
  c.Restore(last);
  EXPECT_TRUE(c.StateEquals(last));
  EXPECT_FALSE(b.StateEquals(last));
  std::vector<std::uint8_t> expected(sim::kSectorSize);
  for (sim::Lba lba = 0; lba < kSpan; ++lba) {
    ASSERT_TRUE(b.Read(lba, out).ok());
    ASSERT_TRUE(c.Read(lba, expected).ok());
    if (lba == b_sector(kRoundsOnB - 1, 0) ||
        lba == b_sector(kRoundsOnB - 1, 1)) {
      EXPECT_EQ(out, sector(2, lba, kRoundsOnB - 1));
      EXPECT_EQ(expected, std::vector<std::uint8_t>(out.size(), 0));
    } else {
      EXPECT_EQ(out, expected) << lba;
    }
  }
}

}  // namespace
}  // namespace cedar::core
