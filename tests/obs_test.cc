// Observability subsystem: histogram bucket math, registry pointer/snapshot
// stability, disk-trace op-context attribution (including nesting through a
// real FSD group commit), the ring buffer, serialization roundtrips, and
// the fs::FileSystem Metrics()/Close() API across all three file systems.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/bsd/ffs.h"
#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/obs/benchcmp.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/json.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace cedar {
namespace {

using obs::Counter;
using obs::DiskOpKind;
using obs::DiskTracer;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---- Histogram buckets: bucket 0 = {0}, bucket i = [2^(i-1), 2^i).

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kNumBuckets - 1);

  // Every bucket's bounds agree with its index: values at the inclusive low
  // and just below the exclusive high land in bucket i, nowhere else.
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLow(i)), i) << i;
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketHigh(i) - 1), i) << i;
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketHigh(i)), i + 1) << i;
  }
}

TEST(HistogramTest, RecordAccumulatesStats) {
  Histogram hist;
  hist.Record(0);
  hist.Record(7);
  hist.Record(1000);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 1007u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 1000u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 1007.0 / 3.0);
  EXPECT_EQ(hist.bucket(0), 1u);  // the zero
  EXPECT_EQ(hist.bucket(3), 1u);  // 7 -> [4,8)
  EXPECT_EQ(hist.bucket(10), 1u); // 1000 -> [512,1024)
}

// ---- Registry: create-on-first-use, stable pointers, reset-keeps-names.

TEST(MetricsRegistryTest, StablePointersAcrossInsertions) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a");
  a->Add(5);
  // Insert many more names; the first pointer must stay valid & identical.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter(std::string("c").append(std::to_string(i)))
        ->Increment();
  }
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(registry.FindCounter("a"), a);
  EXPECT_EQ(registry.FindCounter("never-registered"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("x");
  Histogram* hist = registry.GetHistogram("h");
  counter->Add(9);
  hist->Record(42);
  const MetricsSnapshot before = registry.Snapshot();
  registry.Reset();
  const MetricsSnapshot after = registry.Snapshot();

  ASSERT_EQ(before.counters.size(), after.counters.size());
  ASSERT_EQ(before.histograms.size(), after.histograms.size());
  EXPECT_EQ(after.CounterValue("x"), 0u);
  ASSERT_NE(after.FindHistogram("h"), nullptr);
  EXPECT_EQ(after.FindHistogram("h")->count, 0u);
  // Pointers survive the reset.
  EXPECT_EQ(registry.GetCounter("x"), counter);
  EXPECT_EQ(registry.GetHistogram("h"), hist);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetHistogram("lat")->Record(100);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.CounterValue("alpha"), 2u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
  const auto* hist = snap.FindHistogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(hist->sum, 100u);
}

TEST(ScopedLatencyTest, RecordsElapsedVirtualTime) {
  sim::VirtualClock clock;
  Histogram hist;
  {
    obs::ScopedLatency latency(&hist, &clock);
    clock.Advance(250);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.sum(), 250u);
  {
    obs::ScopedLatency noop(nullptr, &clock);  // null-safe
    clock.Advance(10);
  }
  EXPECT_EQ(hist.count(), 1u);
}

// ---- Tracer: contexts, ring, serialization.

TEST(DiskTracerTest, NestedContextsAttributeToInnermost) {
  DiskTracer tracer;
  EXPECT_EQ(tracer.CurrentOp(), "(none)");
  tracer.Record(1, 1, DiskOpKind::kRead, 0, 10, 20, 30, 40);
  {
    obs::ScopedOp outer(&tracer, "outer");
    tracer.Record(2, 1, DiskOpKind::kWrite, 100, 1, 2, 3, 4);
    {
      obs::ScopedOp inner(&tracer, "inner");
      EXPECT_EQ(tracer.CurrentOp(), "inner");
      tracer.Record(3, 2, DiskOpKind::kWrite, 200, 5, 6, 7, 8);
    }
    EXPECT_EQ(tracer.CurrentOp(), "outer");
  }
  EXPECT_EQ(tracer.CurrentOp(), "(none)");

  EXPECT_EQ(tracer.AggregateFor("(none)").requests, 1u);
  EXPECT_EQ(tracer.AggregateFor("(none)").TotalUs(), 100u);
  EXPECT_EQ(tracer.AggregateFor("outer").requests, 1u);
  const obs::OpClassAggregate inner = tracer.AggregateFor("inner");
  EXPECT_EQ(inner.requests, 1u);
  EXPECT_EQ(inner.sectors, 2u);
  EXPECT_EQ(inner.TotalUs(), 26u);
  EXPECT_EQ(tracer.AggregateFor("never").requests, 0u);
}

// The listings hold every class with a request, sorted by name, and no
// class that was only entered; Reset zeroes them but keeps the names.
TEST(DiskTracerTest, AggregateListingsSortByNameAndSkipIdleClasses) {
  DiskTracer tracer;
  auto names = [](const auto& listing) {
    std::vector<std::string> out;
    for (const auto& [name, agg] : listing) out.push_back(name);
    return out;
  };
  {
    obs::ScopedOp zeta(&tracer, "zeta");
    tracer.Record(1, 1, DiskOpKind::kRead, 0, 1, 1, 1, 1);
    obs::ScopedOp idle(&tracer, "idle");
    obs::ScopedOp alpha(&tracer, "alpha");
    tracer.Record(2, 3, DiskOpKind::kWrite, 10, 1, 1, 1, 1);
  }
  EXPECT_EQ(names(tracer.Aggregates()),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(names(tracer.RootAggregates()), (std::vector<std::string>{"zeta"}));
  EXPECT_EQ(tracer.RootAggregateFor("zeta").sectors, 4u);
  tracer.Reset();
  EXPECT_TRUE(tracer.Aggregates().empty());
  EXPECT_TRUE(tracer.RootAggregates().empty());
  {
    obs::ScopedOp alpha(&tracer, "alpha");
    tracer.Record(3, 2, DiskOpKind::kRead, 20, 1, 1, 1, 1);
  }
  EXPECT_EQ(names(tracer.Aggregates()), (std::vector<std::string>{"alpha"}));
  EXPECT_EQ(tracer.AggregateFor("alpha").sectors, 2u);
}

TEST(DiskTracerTest, RingOverwritesOldestAndCountsDropped) {
  DiskTracer tracer(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::ScopedOp op(&tracer, "w");
    tracer.Record(i, 1, DiskOpKind::kWrite, i * 100, 1, 1, 1, 1);
  }
  EXPECT_EQ(tracer.total_events(), 10u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: the surviving events are 6..9.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(events.front().lba, 6u);
  // Aggregates cover all 10 events, not just the ring survivors.
  EXPECT_EQ(tracer.AggregateFor("w").requests, 10u);
}

TEST(DiskTracerTest, BinaryRoundtripPreservesEventsAndNames) {
  DiskTracer tracer;
  {
    obs::ScopedOp op(&tracer, "alpha");
    tracer.Record(11, 2, DiskOpKind::kRead, 1000, 10, 20, 30, 40);
  }
  {
    obs::ScopedOp op(&tracer, "beta");
    tracer.Record(22, 4, DiskOpKind::kLabelWrite, 2000, 1, 2, 3, 4);
  }
  const std::vector<std::uint8_t> bytes = tracer.SerializeBinary();
  auto loaded = DiskTracer::ParseBinary(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  const auto original = tracer.Events();
  const auto roundtrip = loaded->Events();
  ASSERT_EQ(roundtrip.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(roundtrip[i].seq, original[i].seq);
    EXPECT_EQ(roundtrip[i].lba, original[i].lba);
    EXPECT_EQ(roundtrip[i].sectors, original[i].sectors);
    EXPECT_EQ(roundtrip[i].kind, original[i].kind);
    EXPECT_EQ(roundtrip[i].TotalUs(), original[i].TotalUs());
    EXPECT_EQ(loaded->OpName(roundtrip[i].op_id),
              tracer.OpName(original[i].op_id));
  }
  EXPECT_EQ(loaded->AggregateFor("beta").sectors, 4u);

  // Corrupt magic is rejected, and so is an older format's.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_EQ(DiskTracer::ParseBinary(bad).status().code(),
            ErrorCode::kCorruptMetadata);
  std::vector<std::uint8_t> old_format = bytes;
  old_format[7] = '3';  // "CEDTRC03"
  EXPECT_EQ(DiskTracer::ParseBinary(old_format).status().code(),
            ErrorCode::kCorruptMetadata);
}

// A count no file of that size can hold is refused before anything is
// sized from it (it once asked for 4G names and threw std::bad_alloc).
TEST(DiskTracerTest, CountBeyondTheBytesIsCorrupt) {
  const std::vector<std::uint8_t> bytes = {'C', 'E', 'D', 'T', 'R', 'C',
                                           '0', '4', 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(DiskTracer::ParseBinary(bytes).status().code(),
            ErrorCode::kCorruptMetadata);

  // The same for the event count after a valid name table.
  DiskTracer tracer;
  std::vector<std::uint8_t> events = tracer.SerializeBinary();
  ASSERT_EQ(events.size(), 12u + 2 + 6 + 16 + 4);  // "(none)", no events
  std::fill(events.end() - 4, events.end(), 0xFF);
  EXPECT_EQ(DiskTracer::ParseBinary(events).status().code(),
            ErrorCode::kCorruptMetadata);
}

// One event under two interned names, then every way a CEDTRC04 file can
// be wrong.
TEST(DiskTracerTest, RejectsWhatNoWriterProduces) {
  DiskTracer tracer;
  {
    obs::ScopedOp outer(&tracer, "op.a");
    obs::ScopedOp inner(&tracer, "op.b");
    tracer.Record(7, 1, DiskOpKind::kWrite, 10, 1, 2, 3, 4);
  }
  const std::vector<std::uint8_t> valid = tracer.SerializeBinary();
  ASSERT_TRUE(DiskTracer::ParseBinary(valid).ok());
  // Names start at 12: "(none)" (2 + 6 bytes), "op.a", "op.b" (2 + 4 each).
  const std::size_t name_b = 12 + 8 + 6 + 2;
  const std::size_t event = 12 + 8 + 6 + 6 + 16 + 4;
  ASSERT_EQ(valid.size(), event + 77);
  auto expect_corrupt = [](const std::vector<std::uint8_t>& bytes) {
    EXPECT_EQ(DiskTracer::ParseBinary(bytes).status().code(),
              ErrorCode::kCorruptMetadata);
  };
  std::vector<std::uint8_t> bytes = valid;
  bytes[name_b + 3] = 'a';  // "op.b" becomes a second "op.a"
  expect_corrupt(bytes);
  bytes = valid;
  bytes[15] = 'N';  // "(None)" is not the context every tracer starts with
  expect_corrupt(bytes);
  bytes = valid;
  bytes[event + 32] = 4;  // an unknown DiskOpKind
  expect_corrupt(bytes);
  bytes = valid;
  bytes[event + 65] = 3;  // op id 3 of three names
  expect_corrupt(bytes);
  bytes = valid;
  bytes.push_back(0);
  expect_corrupt(bytes);
}

TEST(DiskTracerTest, JsonlDumpWritesOneLinePerEvent) {
  DiskTracer tracer;
  {
    obs::ScopedOp op(&tracer, "j");
    tracer.Record(1, 1, DiskOpKind::kWrite, 10, 1, 2, 3, 4);
    tracer.Record(2, 1, DiskOpKind::kRead, 20, 1, 2, 3, 4);
  }
  const std::string path = ::testing::TempDir() + "/obs_test_trace.jsonl";
  ASSERT_TRUE(tracer.DumpJsonl(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  int lines = 0;
  int c;
  while ((c = std::fgetc(file)) != EOF) {
    if (c == '\n') ++lines;
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(lines, 2);
}

// ---- File-system level: attribution, snapshot stability, Close().

core::FsdConfig SmallFsdConfig() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  return config;
}

struct FsdRig {
  sim::VirtualClock clock;
  sim::SimDisk disk;
  obs::DiskTracer tracer;
  std::unique_ptr<core::Fsd> fsd;

  FsdRig() : disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock) {
    disk.set_tracer(&tracer);
    fsd = std::make_unique<core::Fsd>(&disk, SmallFsdConfig());
  }
};

TEST(FsObservabilityTest, FsdAttributesRequestsToInnermostOp) {
  FsdRig rig;
  CEDAR_CHECK_OK(rig.fsd->Format());
  rig.tracer.Reset();

  // A create's synchronous leader+data write lands in "fsd.create".
  CEDAR_CHECK_OK(rig.fsd->CreateFile("a/f", std::vector<std::uint8_t>(900, 1))
                     .status());
  EXPECT_GT(rig.tracer.AggregateFor("fsd.create").requests, 0u);
  EXPECT_EQ(rig.tracer.AggregateFor("fsd.log_force").requests, 0u);

  // Let the group-commit timer expire, then issue a Touch: the force fires
  // *inside* the touch, and its log writes must be attributed to the
  // innermost context ("fsd.log_force"), not to "fsd.touch".
  rig.clock.Advance(core::FsdConfig{}.commit.interval + 1);
  CEDAR_CHECK_OK(rig.fsd->Touch("a/f"));
  EXPECT_GT(rig.tracer.AggregateFor("fsd.log_force").requests, 0u);
  EXPECT_EQ(rig.tracer.AggregateFor("fsd.touch").requests, 0u);
}

TEST(FsObservabilityTest, SnapshotKeySetStableAcrossMountCycles) {
  FsdRig rig;
  CEDAR_CHECK_OK(rig.fsd->Format());
  CEDAR_CHECK_OK(rig.fsd->CreateFile("s/f", std::vector<std::uint8_t>(500, 2))
                     .status());

  auto keys = [](const MetricsSnapshot& snap) {
    std::set<std::string> out;
    for (const auto& [name, value] : snap.counters) out.insert(name);
    for (const auto& hist : snap.histograms) out.insert(hist.name);
    return out;
  };
  const fs::FileSystem* base = rig.fsd.get();
  const std::set<std::string> before = keys(base->SnapshotMetrics());
  EXPECT_TRUE(before.count("fsd.forces"));
  EXPECT_TRUE(before.count("disk.reads"));
  EXPECT_TRUE(before.count("op.fsd.create.us"));

  CEDAR_CHECK_OK(rig.fsd->Shutdown());
  CEDAR_CHECK_OK(rig.fsd->Mount());
  EXPECT_EQ(keys(base->SnapshotMetrics()), before);

  // Format resets values but the registered key set still survives.
  CEDAR_CHECK_OK(rig.fsd->Format());
  const MetricsSnapshot reset = base->SnapshotMetrics();
  EXPECT_EQ(keys(reset), before);
  EXPECT_EQ(reset.CounterValue("fsd.forces"), 0u);
}

// FSD's fsd.*, nt.*, log.* and commit.* names, pinned. CounterValue reads 0
// for a name never registered, so a misspelt name in an EXPECT_EQ(..., 0u)
// would pass silently; every such name that tests, benches, tools and
// perfbench read is in this list. perfbench also reads
// "fsd.third_flush_pages", gone since third entry and Checkpoint() share
// fsd.ckpt_pages: it reads 0 there, and stays unregistered here.
TEST(FsObservabilityTest, FsdRegistersExactlyThePinnedNames) {
  FsdRig rig;
  CEDAR_CHECK_OK(rig.fsd->Format());
  const MetricsSnapshot snap = rig.fsd->SnapshotMetrics();
  std::set<std::string> names;
  auto keep = [&](const std::string& name) {
    for (const char* prefix : {"fsd.", "nt.", "log.", "commit."}) {
      if (name.starts_with(prefix)) names.insert(name);
    }
  };
  for (const auto& [name, value] : snap.counters) keep(name);
  for (const auto& hist : snap.histograms) keep(hist.name);
  const std::set<std::string> pinned = {
      "commit.force_requests",
      "commit.piggybacked",
      "commit.rounds",
      "fsd.ckpt_advances",
      "fsd.ckpt_batches",
      "fsd.ckpt_pages",
      "fsd.corruption_detected",
      "fsd.empty_forces",
      "fsd.fast_recoveries",
      "fsd.forces",
      "fsd.home_write_batches",
      "fsd.home_write_requests",
      "fsd.home_writes_coalesced",
      "fsd.mount_rebuild_us",
      "fsd.mount_replay_read_us",
      "fsd.mount_replay_write_us",
      "fsd.mount_root_us",
      "fsd.mount_sweep_sectors",
      "fsd.mount_sweep_us",
      "fsd.nt_miss_primary_us",
      "fsd.nt_miss_replica_us",
      "fsd.nt_repairs",
      "fsd.pages_captured",
      "fsd.piggyback_leader_verifies",
      "fsd.piggyback_leader_writes",
      "fsd.read_retries",
      "fsd.read_retry_exhausted",
      "fsd.recovery_pages_replayed",
      "fsd.remaps",
      "fsd.repairs",
      "fsd.scrub_healed",
      "fsd.scrub_unrepairable",
      "fsd.space_forces",
      "fsd.third_flush_fallbacks",
      "log.markers",
      "log.pages_logged",
      "log.record_sectors",  // histogram
      "log.sectors_written",
      "log.third_entries",
      "nt.misses_interior",
      "nt.misses_leaf",
  };
  EXPECT_EQ(names, pinned);
  EXPECT_NE(snap.FindHistogram("log.record_sectors"), nullptr);
}

// Each mount phase counts its virtual time, and the five phases add up to
// the whole Mount. A crash mount without VAM logging reads the volume root,
// replays the log, sweeps the live name table and rebuilds the VAM; the
// sweep reads both copies of each live page and no free one (a population
// of creates only leaves the live pages contiguous, so no gap is read
// through). A clean mount sweeps nothing and loads the saved VAM.
TEST(FsObservabilityTest, MountPhasesAddUpToTheMountTime) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const core::FsdConfig config = SmallFsdConfig();
  {
    core::Fsd fsd(&disk, config);
    CEDAR_CHECK_OK(fsd.Format());
    for (int i = 0; i < 300; ++i) {
      CEDAR_CHECK_OK(fsd.CreateFile("p/f" + std::to_string(i),
                                    std::vector<std::uint8_t>(100, 4))
                         .status());
    }
    CEDAR_CHECK_OK(fsd.Force());
    disk.CrashNow();
  }
  disk.Reopen();
  const char* const kPhases[] = {
      "fsd.mount_root_us", "fsd.mount_replay_read_us",
      "fsd.mount_replay_write_us", "fsd.mount_sweep_us",
      "fsd.mount_rebuild_us"};
  core::Fsd fsd(&disk, config);
  auto mount = [&](const char* what) {
    const MetricsSnapshot before = fsd.SnapshotMetrics();
    const sim::Micros start = clock.now();
    CEDAR_CHECK_OK(fsd.Mount());
    const sim::Micros took = clock.now() - start;
    const MetricsSnapshot after = fsd.SnapshotMetrics();
    std::map<std::string, std::uint64_t> delta;
    std::uint64_t sum = 0;
    for (const char* name : kPhases) {
      delta[name] = after.CounterValue(name) - before.CounterValue(name);
      sum += delta[name];
    }
    delta["fsd.mount_sweep_sectors"] =
        after.CounterValue("fsd.mount_sweep_sectors") -
        before.CounterValue("fsd.mount_sweep_sectors");
    EXPECT_EQ(sum, took) << what;
    return delta;
  };
  const auto crash = mount("crash mount");
  for (const char* name : kPhases) {
    EXPECT_GT(crash.at(name), 0u) << name;
  }
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  ASSERT_GT(report->nt_pages_checked, 2u);
  EXPECT_EQ(crash.at("fsd.mount_sweep_sectors"),
            2u * report->nt_pages_checked);

  CEDAR_CHECK_OK(fsd.Shutdown());
  const auto clean = mount("clean mount");
  EXPECT_EQ(clean.at("fsd.mount_replay_read_us"), 0u);
  EXPECT_EQ(clean.at("fsd.mount_sweep_us"), 0u);
  EXPECT_EQ(clean.at("fsd.mount_sweep_sectors"), 0u);
  EXPECT_GT(clean.at("fsd.mount_rebuild_us"), 0u);  // the VAM load
  CEDAR_CHECK_OK(fsd.Shutdown());
}

// The commit queue counts into FSD's registry: commit.rounds is the number
// of commit rounds run, whether stepped on the forcing thread (inline) or
// run by the daemon thread. An empty Force() is a round only when stepped:
// inline forcing always wrote (or counted) a force, while the daemon skips
// a sequence already durable.
TEST(FsObservabilityTest, CommitRoundsCountInBothExecutors) {
  for (const bool daemon : {false, true}) {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    core::FsdConfig config = SmallFsdConfig();
    config.commit.daemon = daemon;
    // Only Force() commits: no deadline round runs.
    config.commit.interval = 3600ull * 1000 * 1000;
    core::Fsd fsd(&disk, config);
    CEDAR_CHECK_OK(fsd.Format());
    const MetricsSnapshot before = fsd.SnapshotMetrics();
    constexpr std::uint64_t kForces = 7;
    for (std::uint64_t i = 0; i < kForces; ++i) {
      CEDAR_CHECK_OK(fsd.CreateFile("r/f" + std::to_string(i),
                                    std::vector<std::uint8_t>(300, 1))
                         .status());
      CEDAR_CHECK_OK(fsd.Force());
    }
    CEDAR_CHECK_OK(fsd.Force());  // nothing new since the last round
    const MetricsSnapshot after = fsd.SnapshotMetrics();
    auto delta = [&](const char* name) {
      return after.CounterValue(name) - before.CounterValue(name);
    };
    const std::uint64_t rounds = daemon ? kForces : kForces + 1;
    EXPECT_EQ(delta("commit.rounds"), rounds) << "daemon=" << daemon;
    EXPECT_EQ(delta("commit.force_requests"), rounds) << "daemon=" << daemon;
    EXPECT_EQ(delta("commit.piggybacked"), 0u) << "daemon=" << daemon;
    EXPECT_EQ(delta("fsd.forces"), kForces) << "daemon=" << daemon;
    EXPECT_EQ(delta("fsd.empty_forces"), rounds - kForces)
        << "daemon=" << daemon;
    CEDAR_CHECK_OK(fsd.Shutdown());
  }
}

// The page cache counts into FSD's registry, beside the fsd.* counters: a
// name table far larger than an 8-frame cache misses, hits on a repeated
// lookup, and evicts, and each eviction walks at least one frame. Each
// name-table miss is split by the requested page's kind: the cold walk
// misses on the root (interior) and on leaves.
TEST(FsObservabilityTest, FsdPageCacheCountersLiveInTheRegistry) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::FsdConfig config = SmallFsdConfig();
  config.cache_frames = 8;
  core::Fsd fsd(&disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  for (int i = 0; i < 200; ++i) {
    CEDAR_CHECK_OK(fsd.CreateFile("k/f" + std::to_string(i),
                                  std::vector<std::uint8_t>(100, 4))
                       .status());
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
  CEDAR_CHECK_OK(fsd.Mount());  // clean: the name table is read lazily

  const fs::FileSystem& base = fsd;
  const MetricsSnapshot before = base.SnapshotMetrics();
  for (const char* name :
       {"cache.hits", "cache.misses", "cache.evictions",
        "cache.eviction_scan_steps", "nt.misses_interior", "nt.misses_leaf"}) {
    EXPECT_NE(base.Metrics().FindCounter(name), nullptr) << name;
  }
  ASSERT_TRUE(fsd.List("k/").ok());
  for (int i = 0; i < 2; ++i) {
    auto handle = fsd.Open("k/f7");
    ASSERT_TRUE(handle.ok());
    CEDAR_CHECK_OK(fsd.Close(*handle));
  }
  const MetricsSnapshot after = base.SnapshotMetrics();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_GT(delta("cache.misses"), 0u);
  EXPECT_GT(delta("cache.hits"), 0u);
  EXPECT_GT(delta("cache.evictions"), 0u);
  EXPECT_GE(delta("cache.eviction_scan_steps"), delta("cache.evictions"));
  EXPECT_GT(delta("nt.misses_interior"), 0u);
  EXPECT_GT(delta("nt.misses_leaf"), 0u);
  EXPECT_LE(delta("nt.misses_interior") + delta("nt.misses_leaf"),
            delta("cache.misses"));
}

TEST(FsObservabilityTest, FsdCloseDropsLeaderVerification) {
  FsdRig rig;
  CEDAR_CHECK_OK(rig.fsd->Format());
  CEDAR_CHECK_OK(rig.fsd->CreateFile("c/f", std::vector<std::uint8_t>(900, 3))
                     .status());
  CEDAR_CHECK_OK(rig.fsd->Force());

  auto verifies = [&] {
    return rig.fsd->SnapshotMetrics().CounterValue(
        "fsd.piggyback_leader_verifies");
  };
  auto handle = rig.fsd->Open("c/f");
  CEDAR_CHECK_OK(handle.status());
  std::vector<std::uint8_t> out(900);
  CEDAR_CHECK_OK(rig.fsd->Read(*handle, 0, out));
  const std::uint64_t after_first = verifies();
  EXPECT_GT(after_first, 0u);
  // Still open: a second read skips the piggybacked verify.
  CEDAR_CHECK_OK(rig.fsd->Read(*handle, 0, out));
  EXPECT_EQ(verifies(), after_first);

  // Close forgets the verified bit; reopen + read verifies again.
  CEDAR_CHECK_OK(rig.fsd->Close(*handle));
  CEDAR_CHECK_OK(rig.fsd->Close(*handle));  // unknown handle: not an error
  handle = rig.fsd->Open("c/f");
  CEDAR_CHECK_OK(handle.status());
  CEDAR_CHECK_OK(rig.fsd->Read(*handle, 0, out));
  EXPECT_GT(verifies(), after_first);
}

TEST(FsObservabilityTest, MetricsAndCloseUniformAcrossImplementations) {
  // One pass of the same base-class-only driver per implementation: the
  // whole point of the Metrics()/Close() redesign is that callers never
  // need to know which file system they hold.
  auto drive = [](sim::SimDisk* disk, fs::FileSystem* file_system,
                  const char* op_histogram) {
    (void)disk;
    auto uid =
        file_system->CreateFile("u/f", std::vector<std::uint8_t>(400, 4));
    CEDAR_CHECK_OK(uid.status());
    auto handle = file_system->Open("u/f");
    CEDAR_CHECK_OK(handle.status());
    CEDAR_CHECK_OK(file_system->Close(*handle));
    CEDAR_CHECK_OK(file_system->Force());

    const MetricsSnapshot snap = file_system->SnapshotMetrics();
    const auto* hist = snap.FindHistogram(op_histogram);
    ASSERT_NE(hist, nullptr) << op_histogram;
    EXPECT_GT(hist->count, 0u) << op_histogram;
    EXPECT_GT(snap.CounterValue("disk.writes"), 0u) << op_histogram;
  };
  {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    cfs::CfsConfig config;
    config.nt_page_count = 64;
    cfs::Cfs cfs(&disk, config);
    CEDAR_CHECK_OK(cfs.Format());
    drive(&disk, &cfs, "op.cfs.create.us");
  }
  {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    core::Fsd fsd(&disk, SmallFsdConfig());
    CEDAR_CHECK_OK(fsd.Format());
    drive(&disk, &fsd, "op.fsd.create.us");
  }
  {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    bsd::FfsConfig config;
    config.cylinders_per_group = 10;
    config.inodes_per_group = 256;
    bsd::Ffs ffs(&disk, config);
    CEDAR_CHECK_OK(ffs.Format());
    drive(&disk, &ffs, "op.bsd.create.us");
  }
}

TEST(FsObservabilityTest, CfsCloseReleasesOpenState) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  cfs::CfsConfig config;
  config.nt_page_count = 64;
  cfs::Cfs cfs(&disk, config);
  CEDAR_CHECK_OK(cfs.Format());
  CEDAR_CHECK_OK(
      cfs.CreateFile("x/f", std::vector<std::uint8_t>(300, 5)).status());
  auto handle = cfs.Open("x/f");
  CEDAR_CHECK_OK(handle.status());
  CEDAR_CHECK_OK(cfs.Close(*handle));
  CEDAR_CHECK_OK(cfs.Close(*handle));  // idempotent
  // With the open-table entry gone, delete reads the header from disk and
  // still succeeds; a reopen then reports the file as absent.
  CEDAR_CHECK_OK(cfs.DeleteFile("x/f"));
  EXPECT_FALSE(cfs.Open("x/f").ok());
}

// ---- HistogramData::Percentile (log2-bucket interpolation). ----

TEST(HistogramPercentileTest, InterpolatesAndClampsToObservedRange) {
  MetricsRegistry single;
  for (int i = 0; i < 100; ++i) {
    single.GetHistogram("h")->Record(1000);
  }
  const MetricsSnapshot::HistogramData data =
      single.Snapshot().histograms[0];
  // Single-value distribution: every percentile is that value.
  EXPECT_EQ(data.Percentile(0.50), 1000u);
  EXPECT_EQ(data.Percentile(0.99), 1000u);

  MetricsRegistry registry;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    registry.GetHistogram("s")->Record(v);
  }
  const auto sdata = registry.Snapshot().histograms[0];
  // Log2 buckets are coarse; the percentile must land in the right bucket.
  EXPECT_GE(sdata.Percentile(0.50), 256u);
  EXPECT_LE(sdata.Percentile(0.50), 1000u);
  EXPECT_GE(sdata.Percentile(0.99), sdata.Percentile(0.50));
  EXPECT_LE(sdata.Percentile(1.0), 1000u);
  EXPECT_EQ(MetricsSnapshot::HistogramData{}.Percentile(0.5), 0u);
}

// ---- Root-context attribution (the workload replayer's tenant split). ----

TEST(DiskTracerRootTest, OutermostScopeClaimsTheRootAggregate) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  DiskTracer tracer;
  disk.set_tracer(&tracer);
  std::vector<std::uint8_t> page(512, 0xCD);
  {
    obs::ScopedOp root(&tracer, "wl.t1");
    {
      obs::ScopedOp inner(&tracer, "fsd.force");
      CEDAR_CHECK_OK(disk.Write(100, page));
    }
  }
  {
    obs::ScopedOp root(&tracer, "wl.t2");
    CEDAR_CHECK_OK(disk.Write(200, page));
  }
  // Innermost wins op attribution; outermost wins root attribution.
  EXPECT_EQ(tracer.AggregateFor("fsd.force").requests, 1u);
  EXPECT_EQ(tracer.RootAggregateFor("wl.t1").requests, 1u);
  EXPECT_EQ(tracer.RootAggregateFor("wl.t2").requests, 1u);
  EXPECT_EQ(tracer.RootAggregateFor("fsd.force").requests, 0u);

  // root_id survives the binary roundtrip.
  const std::string path = ::testing::TempDir() + "/obs_root_trace.bin";
  CEDAR_CHECK_OK(tracer.DumpBinary(path));
  auto reloaded = DiskTracer::LoadBinary(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  EXPECT_EQ(reloaded->RootAggregateFor("wl.t1").requests, 1u);
  EXPECT_EQ(reloaded->RootAggregateFor("wl.t2").requests, 1u);
  std::remove(path.c_str());
}

// ---- The perf-gate comparison engine. ----

namespace benchcmp {

util::JsonValue Report(double throughput, double latency) {
  auto metrics = util::JsonValue::Object();
  auto higher = util::JsonValue::Object();
  higher.Set("value", util::JsonValue::Number(throughput));
  higher.Set("direction", util::JsonValue::String("higher"));
  metrics.Set("ops_per_vsec", std::move(higher));
  auto lower = util::JsonValue::Object();
  lower.Set("value", util::JsonValue::Number(latency));
  lower.Set("direction", util::JsonValue::String("lower"));
  metrics.Set("seek_ms", std::move(lower));
  auto report = util::JsonValue::Object();
  report.Set("schema_version",
             util::JsonValue::Number(obs::kBenchSchemaVersion));
  report.Set("bench", util::JsonValue::String("t"));
  report.Set("config_digest", util::JsonValue::String("cafe0001"));
  report.Set("metrics", std::move(metrics));
  return report;
}

}  // namespace benchcmp

TEST(BenchCmpTest, GatesBothDirectionsAtTolerance) {
  const util::JsonValue base = benchcmp::Report(100, 50);
  // Within 10%: passes.
  auto ok_cmp = obs::CompareBenchReports(base, benchcmp::Report(91, 54));
  ASSERT_TRUE(ok_cmp.ok());
  EXPECT_FALSE(ok_cmp.value().regression);
  // Throughput drop beyond 10%: regression (higher-is-better).
  auto drop = obs::CompareBenchReports(base, benchcmp::Report(85, 50));
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE(drop.value().regression);
  // Disk-time rise beyond 10%: regression (lower-is-better).
  auto rise = obs::CompareBenchReports(base, benchcmp::Report(100, 60));
  ASSERT_TRUE(rise.ok());
  EXPECT_TRUE(rise.value().regression);
  // Improvements never regress.
  auto better = obs::CompareBenchReports(base, benchcmp::Report(150, 20));
  ASSERT_TRUE(better.ok());
  EXPECT_FALSE(better.value().regression);
}

// Deterministic reports (BENCH_paper.json's I/O counts) are gated at
// tolerance 0: one step the wrong way fails, from a zero baseline too.
TEST(BenchCmpTest, ToleranceZeroFailsOnAnyStepTheWrongWay) {
  auto regressed = [](double base_ops, double base_ios, double ops,
                      double ios) {
    auto cmp = obs::CompareBenchReports(benchcmp::Report(base_ops, base_ios),
                                        benchcmp::Report(ops, ios), 0.0);
    EXPECT_TRUE(cmp.ok());
    return cmp.ok() && cmp.value().regression;
  };
  EXPECT_FALSE(regressed(100, 108, 100, 108));  // equal values pass
  EXPECT_TRUE(regressed(100, 108, 100, 109));   // "lower" rises by 1
  EXPECT_TRUE(regressed(100, 108, 99, 108));    // "higher" drops by 1
  EXPECT_TRUE(regressed(100, 0, 100, 1));       // a baseline of 0 rises
  EXPECT_FALSE(regressed(100, 108, 101, 107));  // improvements pass
}

TEST(BenchCmpTest, RefusesIncomparableReports) {
  const util::JsonValue base = benchcmp::Report(100, 50);
  util::JsonValue other_schema = benchcmp::Report(100, 50);
  other_schema.Set("schema_version", util::JsonValue::Number(1));
  EXPECT_FALSE(obs::CompareBenchReports(base, other_schema).ok());
  util::JsonValue no_schema = benchcmp::Report(100, 50);
  no_schema.Set("schema_version", util::JsonValue::Null());
  EXPECT_FALSE(obs::CompareBenchReports(base, no_schema).ok());
  util::JsonValue other_bench = benchcmp::Report(100, 50);
  other_bench.Set("bench", util::JsonValue::String("u"));
  EXPECT_FALSE(obs::CompareBenchReports(base, other_bench).ok());
  util::JsonValue other_digest = benchcmp::Report(100, 50);
  other_digest.Set("config_digest", util::JsonValue::String("deadbeef"));
  auto refused = obs::CompareBenchReports(base, other_digest);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("regenerate"),
            std::string::npos);
}

TEST(BenchCmpTest, MissingGatedMetricIsARegression) {
  const util::JsonValue base = benchcmp::Report(100, 50);
  util::JsonValue renamed = benchcmp::Report(100, 50);
  // Simulate a rename: drop "ops_per_vsec" by rebuilding metrics.
  auto metrics = util::JsonValue::Object();
  auto lower = util::JsonValue::Object();
  lower.Set("value", util::JsonValue::Number(50));
  lower.Set("direction", util::JsonValue::String("lower"));
  metrics.Set("seek_ms", std::move(lower));
  renamed.Set("metrics", std::move(metrics));
  auto cmp = obs::CompareBenchReports(base, renamed);
  ASSERT_TRUE(cmp.ok());
  EXPECT_TRUE(cmp.value().regression);

  // A brand-new candidate INFO metric is noted, never gated.
  util::JsonValue extra = benchcmp::Report(100, 50);
  auto added = util::JsonValue::Object();
  added.Set("value", util::JsonValue::Number(7));
  added.Set("direction", util::JsonValue::String("info"));
  const_cast<util::JsonValue*>(extra.Find("metrics"))
      ->Set("brand_new", std::move(added));
  auto cmp2 = obs::CompareBenchReports(base, extra);
  ASSERT_TRUE(cmp2.ok());
  EXPECT_FALSE(cmp2.value().regression);
  EXPECT_FALSE(cmp2.value().notes.empty());

  // A brand-new candidate GATED metric is a gate-set mismatch: the two
  // reports measure different things, so the comparison is refused (the
  // baseline must be regenerated) rather than silently passed.
  util::JsonValue extra_gated = benchcmp::Report(100, 50);
  auto added_gated = util::JsonValue::Object();
  added_gated.Set("value", util::JsonValue::Number(7));
  added_gated.Set("direction", util::JsonValue::String("higher"));
  const_cast<util::JsonValue*>(extra_gated.Find("metrics"))
      ->Set("brand_new", std::move(added_gated));
  auto refused = obs::CompareBenchReports(base, extra_gated);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("gate-set mismatch"),
            std::string::npos);
}

TEST(BenchCmpTest, DeltaTableNamesRegressedMetrics) {
  const util::JsonValue base = benchcmp::Report(100, 50);
  auto cmp = obs::CompareBenchReports(base, benchcmp::Report(50, 50));
  ASSERT_TRUE(cmp.ok());
  const std::string text = obs::FormatDeltaTable(cmp.value(), false);
  EXPECT_NE(text.find("ops_per_vsec"), std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  const std::string md = obs::FormatDeltaTable(cmp.value(), true);
  EXPECT_NE(md.find("| metric |"), std::string::npos);
  EXPECT_NE(md.find("**REGRESSED**"), std::string::npos);
}

TEST(BenchCmpTest, DeltaTableKeepsSmallValuesAndAlignsLongNames) {
  // BENCH_paper's longest name (52 characters) holding a ratio of 0.002.
  const std::string name =
      "allocator.appends.virtual_ms_per_append_extend_write";
  ASSERT_EQ(name.size(), 52u);
  util::JsonValue base = benchcmp::Report(100, 50);
  auto ratio = util::JsonValue::Object();
  ratio.Set("value", util::JsonValue::Number(0.002));
  ratio.Set("direction", util::JsonValue::String("lower"));
  const_cast<util::JsonValue*>(base.Find("metrics"))
      ->Set(name, std::move(ratio));
  auto cmp = obs::CompareBenchReports(base, base);
  ASSERT_TRUE(cmp.ok());
  const std::string text = obs::FormatDeltaTable(cmp.value(), false);
  // Every row's baseline value ends in the header's "baseline" column.
  const std::string header = "baseline";
  const std::size_t end = text.find(header) + header.size();
  auto baseline_cell = [&](const std::string& metric) {
    const std::size_t row = text.find(metric + " ");
    EXPECT_NE(row, std::string::npos) << metric;
    const std::size_t cell = text.rfind(' ', row + end - 1);
    return text.substr(cell + 1, row + end - cell - 1);
  };
  EXPECT_EQ(baseline_cell(name), "0.002");
  EXPECT_EQ(baseline_cell("ops_per_vsec"), "100.00");
  EXPECT_EQ(baseline_cell("seek_ms"), "50.00");
  EXPECT_NE(obs::FormatDeltaTable(cmp.value(), true).find("| 0.002 |"),
            std::string::npos);
}

}  // namespace
}  // namespace cedar
