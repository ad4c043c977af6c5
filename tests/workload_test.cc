#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"
#include "src/workload/zipf.h"

namespace cedar::workload {
namespace {

TEST(SizeDistributionTest, MatchesPaperShape) {
  // Paper section 5.6: 50% of files < 4000 bytes holding ~8% of the bytes.
  SizeDistribution sizes;
  Rng rng(17);
  std::uint64_t small_count = 0;
  std::uint64_t small_bytes = 0;
  std::uint64_t total_bytes = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t size = sizes.Sample(rng);
    ASSERT_GE(size, 128u);
    ASSERT_LE(size, 512u * 1024);
    total_bytes += size;
    if (size < 4000) {
      ++small_count;
      small_bytes += size;
    }
  }
  const double small_fraction =
      static_cast<double>(small_count) / kSamples;
  const double small_byte_fraction =
      static_cast<double>(small_bytes) / static_cast<double>(total_bytes);
  EXPECT_NEAR(small_fraction, 0.5, 0.03);
  EXPECT_NEAR(small_byte_fraction, 0.08, 0.03);
}

class WorkloadFsTest : public ::testing::Test {
 protected:
  WorkloadFsTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, Config()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }
  static core::FsdConfig Config() {
    core::FsdConfig config;
    config.log_sectors = 400;
    config.nt_pages = 256;
    return config;
  }
  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  core::Fsd fsd_;
};

TEST_F(WorkloadFsTest, PopulateCreatesRequestedFiles) {
  Rng rng(9);
  SizeDistribution sizes(8000.0);
  auto total = PopulateVolume(&fsd_, "pop/", 30, sizes, rng);
  ASSERT_TRUE(total.ok());
  EXPECT_GT(*total, 0u);
  auto list = fsd_.List("pop/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 30u);
}

TEST_F(WorkloadFsTest, MakeDoSetupAndBuild) {
  Rng rng(11);
  MakeDoConfig config;
  config.modules = 10;
  config.stale_fraction = 0.5;
  config.source_bytes = 2000;
  config.object_bytes = 3000;
  ASSERT_TRUE(MakeDoSetup(&fsd_, "mk/", config, rng).ok());
  auto list = fsd_.List("mk/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 20u);  // source + object per module

  Rng build_rng(12);
  auto result = MakeDoBuild(&fsd_, "mk/", config, build_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->modules_scanned, 10u);
  EXPECT_GT(result->modules_rebuilt, 0u);
  EXPECT_LE(result->modules_rebuilt, 10u);
  // Rebuilt objects exist as fresh versions.
  auto after = fsd_.List("mk/");
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->size(), 20u);
}

TEST_F(WorkloadFsTest, BulkUpdateDrivesCommits) {
  Rng rng(13);
  BulkUpdateConfig config;
  config.files = 10;
  config.rounds = 3;
  config.touches_per_round = 10;
  config.rewrites_per_round = 2;
  config.think_time = 100 * sim::kMillisecond;
  ASSERT_TRUE(BulkUpdate(&fsd_, "bulk/", config, rng,
                         [&](sim::Micros think) {
                           clock_.Advance(think);
                           return fsd_.Tick();
                         })
                  .ok());
  // The half-second timer fired repeatedly across the bursts.
  EXPECT_GT(fsd_.SnapshotMetrics().CounterValue("fsd.forces"), 3u);
  // Rewrites made new versions; the set of distinct names is unchanged.
  auto list = fsd_.List("bulk/");
  ASSERT_TRUE(list.ok());
  std::set<std::string> names;
  for (const auto& info : *list) {
    names.insert(info.name);
  }
  EXPECT_EQ(names.size(), 10u);
}

// ---- The trace-driven workload engine: record, expand, replay. ----

TEST(ZipfSamplerTest, SampleFrequenciesMatchThePmf) {
  ZipfSampler zipf(20, 1.0);
  double pmf_sum = 0;
  for (std::uint32_t r = 0; r < zipf.n(); ++r) {
    pmf_sum += zipf.Pmf(r);
  }
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);

  Rng rng(3);
  constexpr int kSamples = 40000;
  std::vector<int> counts(zipf.n(), 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint32_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, zipf.n());
    ++counts[rank];
  }
  for (std::uint32_t r = 0; r < zipf.n(); ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kSamples, zipf.Pmf(r),
                0.01)
        << "rank " << r;
  }
  // The defining skew: rank 0 dominates, and s = 0 degenerates to uniform.
  EXPECT_GT(counts[0], 3 * counts[9]);
  ZipfSampler uniform(10, 0.0);
  EXPECT_NEAR(uniform.Pmf(0), 0.1, 1e-9);
  EXPECT_NEAR(uniform.Pmf(9), 0.1, 1e-9);
}

namespace engine {

core::FsdConfig SmallConfig(bool commit_daemon) {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.commit.daemon = commit_daemon;
  return config;
}

// Records a small tenant mix as it runs against a live FSD. Pure Rng drives
// the op mix, so the captured trace is a deterministic function of the
// shape.
std::vector<TraceEntry> RecordSmallWorkload(
    const TenantMix& mix = {.ops = 90, .files_per_tenant = 9, .seed = 5}) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallConfig(false));
  CEDAR_CHECK_OK(fsd.Format());
  std::vector<TraceEntry> trace;
  CEDAR_CHECK_OK(RunTenantMix(
                     &fsd, mix,
                     [&](const std::string&, sim::Micros think) {
                       clock.Advance(think);
                       return fsd.Tick();
                     },
                     &trace, &clock)
                     .status());
  CEDAR_CHECK_OK(fsd.Shutdown());
  return trace;
}

struct Footprint {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t violations = 0;

  bool operator==(const Footprint&) const = default;
};

Footprint ReplayFootprint(const std::vector<TraceEntry>& trace,
                          const ReplayConfig& config) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk,
                SmallConfig(config.mode == ReplayMode::kFreeRun));
  CEDAR_CHECK_OK(fsd.Format());
  disk.ResetStats();
  auto result = ReplayTraceMulti(&fsd, trace, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  CEDAR_CHECK_OK(result.status());
  Footprint footprint;
  footprint.ops = result.value().totals.ops;
  footprint.reads = disk.stats().reads;
  footprint.writes = disk.stats().writes;
  footprint.sectors_written = disk.stats().sectors_written;
  footprint.busy_us = disk.stats().busy_us;
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  for (const auto& issue : report.value().issues) {
    footprint.violations +=
        issue.severity == core::FsckIssue::Severity::kViolation ? 1 : 0;
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
  return footprint;
}

}  // namespace engine

TEST(RecordReplayTest, RecordingIsDeterministic) {
  const std::vector<TraceEntry> once = engine::RecordSmallWorkload();
  const std::vector<TraceEntry> twice = engine::RecordSmallWorkload();
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, twice);  // includes tenants and vtime stamps
}

TEST(RecordReplayTest, BinaryRoundTripPreservesTheTrace) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload();
  const std::vector<std::uint8_t> bytes = SerializeTraceBinary(trace);
  auto parsed = ParseTraceBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), trace);
}

TEST(RecordReplayTest, TurnstileFootprintIdenticalAt148Threads) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload();
  ReplayConfig config;
  config.threads = 1;
  const engine::Footprint one = engine::ReplayFootprint(trace, config);
  config.threads = 4;
  const engine::Footprint four = engine::ReplayFootprint(trace, config);
  config.threads = 8;
  const engine::Footprint eight = engine::ReplayFootprint(trace, config);
  EXPECT_GT(one.ops, 0u);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.violations, 0u);
}

TEST(RecordReplayTest, OpenLoopPacingAdvancesTheClock) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload();
  ASSERT_GT(trace.back().vtime_us, trace.front().vtime_us);
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, engine::SmallConfig(false));
  CEDAR_CHECK_OK(fsd.Format());
  ReplayConfig config;
  config.paced = true;
  auto result = ReplayTraceMulti(&fsd, trace, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  ASSERT_TRUE(result.ok());
  // The driver owes the clock at least the recorded span as think time.
  EXPECT_GE(clock.now(), trace.back().vtime_us - trace.front().vtime_us);
  CEDAR_CHECK_OK(fsd.Shutdown());
}

// A trace has no rename, so a rename mix is refused before it issues an
// op or a think, and the same mix unrecorded runs.
TEST(RecordReplayTest, RenameMixIsRefusedBeforeAnyOp) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, engine::SmallConfig(false));
  ASSERT_TRUE(fsd.Format().ok());
  const TenantMix mix{.ops = 40, .files_per_tenant = 5, .rename_slot = true};
  std::uint32_t thinks = 0;
  auto think = [&](const std::string&, sim::Micros) {
    ++thinks;
    return OkStatus();
  };
  std::vector<TraceEntry> trace;
  auto refused = RunTenantMix(&fsd, mix, think, &trace, &clock);
  EXPECT_EQ(refused.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(thinks, 0u);
  auto listed = fsd.List("t");
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());

  auto ran = RunTenantMix(&fsd, mix, think);
  ASSERT_TRUE(ran.ok()) << ran.status().message();
  EXPECT_GT(*ran, 0u);
  EXPECT_EQ(thinks, mix.ops);
}

// Four tenants' recorded mix, replayed free-running on eight threads:
// every op keeps its tenant and every file its tenant's namespace.
TEST(ReplayTenantTest, NamespacesStayIsolatedUnderConcurrentReplay) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload(
      TenantMix{.ops = 150, .files_per_tenant = 6, .tenants = 4, .seed = 7});

  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, engine::SmallConfig(true));
  CEDAR_CHECK_OK(fsd.Format());
  ReplayConfig config;
  config.threads = 8;
  config.mode = ReplayMode::kFreeRun;
  auto result = ReplayTraceMulti(&fsd, trace, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().per_tenant.size(), 4u);

  // Every surviving file lives under exactly one tenant prefix, and each
  // tenant actually did work.
  auto all = fsd.List("");
  ASSERT_TRUE(all.ok());
  std::uint64_t prefixed = 0;
  for (const auto& info : *all) {
    int owners = 0;
    for (std::uint16_t tenant = 0; tenant < 4; ++tenant) {
      owners += info.name.starts_with(TenantPrefix(tenant)) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << info.name;
    prefixed += owners;
  }
  EXPECT_EQ(prefixed, all->size());
  EXPECT_GT(all->size(), 0u);
  for (std::uint16_t tenant = 0; tenant < 4; ++tenant) {
    EXPECT_GT(result.value().per_tenant[tenant].ops, 0u) << tenant;
    auto mine = fsd.List(TenantPrefix(tenant));
    ASSERT_TRUE(mine.ok());
    for (const auto& info : *mine) {
      EXPECT_TRUE(info.name.starts_with(TenantPrefix(tenant))) << info.name;
    }
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
}

}  // namespace
}  // namespace cedar::workload
