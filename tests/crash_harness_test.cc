// Crash-consistency torture tests: the systematic crash-point harness
// (src/crash) plus the fault-injection paths it leans on, end to end.
//
// The bounded sweep here is the tier-1 incarnation of tools/crashtest: it
// enumerates every clean cut of the standard workload and a sampled set of
// torn/reorder variants, recovers at each, and requires Fsd::Fsck() plus
// the durability oracle to pass everywhere (double-crash included). The
// History tests run each of the oracle's rules on both sides, since a
// passing sweep never takes a reject path. The
// remaining tests pin the satellite behaviours individually: transient
// read errors retried then surfaced, crashed-disk snapshot/image fidelity,
// double crash during replay, Scrub() after track loss, and regression
// tests for the two bugs the harness work flushed out (multi-record force
// atomicity; clean-mount VAM-save ordering).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/fsd.h"
#include "src/core/log.h"
#include "src/obs/metrics.h"
#include "src/crash/faultcampaign.h"
#include "src/crash/harness.h"
#include "src/crash/workload.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/crc32.h"
#include "src/workload/workload.h"

namespace cedar::crash {
namespace {

using core::Fsd;
using core::FsdConfig;
using workload::TraceEntry;
using workload::TraceOp;

sim::CrashPlan CleanCut(std::uint64_t at_write_index) {
  sim::CrashPlan plan;
  plan.at_write_index = at_write_index;
  return plan;
}

// ---------------------------------------------------------------------------
// The durability oracle.

FileCrc CrcOf(const std::vector<std::uint8_t>& bytes) {
  return FileCrc{Crc32(bytes), bytes.size()};
}

// A seven-step script with the content `a` holds after each of its steps:
// 0 creates a, 1 forces, 2 overwrites part of a, 3 creates b, 4 deletes a,
// 5 forces, 6 creates a again.
class HistoryTest : public ::testing::Test {
 protected:
  HistoryTest() {
    const TraceEntry create_a{TraceOp::kCreate, "a", 1000, 1};
    const TraceEntry write_a{TraceOp::kWrite, "a", 100, 200, 2};
    const TraceEntry create_b{TraceOp::kCreate, "b", 300, 3};
    const TraceEntry delete_a{TraceOp::kDelete, "a"};
    const TraceEntry force{};  // an entry is a Force() unless told otherwise
    const TraceEntry recreate_a{TraceOp::kCreate, "a", 900, 6};
    a0_ = workload::Payload(1000, 1);
    a2_ = a0_;
    const std::vector<std::uint8_t> written = workload::Payload(200, 2);
    std::copy(written.begin(), written.end(), a2_.begin() + 100);
    a6_ = workload::Payload(900, 6);
    steps_ = {create_a, force, write_a, create_b, delete_a, force,
              recreate_a};
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      changed_.push_back(history_.Apply(static_cast<int>(s), steps_[s]));
    }
  }

  std::vector<TraceEntry> steps_;
  History history_;
  std::vector<bool> changed_;
  std::vector<std::uint8_t> a0_, a2_, a6_;
};

TEST_F(HistoryTest, ApplyReportsWhichStepsChangedAFile) {
  EXPECT_EQ(changed_, (std::vector<bool>{true, false, true, true, true,
                                         false, true}));
  ASSERT_EQ(history_.contents().at("a").size(), 3u);
  EXPECT_EQ(history_.contents().at("a")[1].step, 2);
  EXPECT_EQ(history_.contents().at("b").front().step, 3);
}

TEST_F(HistoryTest, ForcedFileMustHoldAForceTimeContent) {
  // A crash inside step 2: the force at step 1 covers a as created.
  const ForcePoint fp = history_.ForcedBefore(2);
  EXPECT_EQ(fp.step, 1);
  ASSERT_TRUE(fp.files.contains("a"));
  EXPECT_EQ(fp.files.at("a").step, 0);
  EXPECT_EQ(fp.files.at("a").crc, Crc32(a0_));
  EXPECT_TRUE(history_.Wrote("a", CrcOf(a0_), 0, 2));
  EXPECT_TRUE(history_.Wrote("a", CrcOf(a2_), 0, 2));
  // Bytes the workload never wrote are refused however late the crash.
  std::vector<std::uint8_t> torn = a2_;
  torn[150] ^= 0x40;
  EXPECT_FALSE(history_.Wrote("a", CrcOf(torn), -1, 6));
  // So is the right CRC at the wrong size, and any content of a name the
  // workload never wrote.
  EXPECT_FALSE(history_.Wrote("a", FileCrc{Crc32(a0_), 999}, -1, 6));
  EXPECT_FALSE(history_.Wrote("zz", CrcOf(a0_), -1, 6));

  // Force the overwrite instead of creating b: a crash inside step 4 must
  // find a2, and a0 is now a rollback of a forced update.
  History forced;
  for (int s = 0; s < 3; ++s) {
    forced.Apply(s, steps_[static_cast<std::size_t>(s)]);
  }
  forced.Apply(3, TraceEntry{});
  const ForcePoint later = forced.ForcedBefore(4);
  EXPECT_EQ(later.step, 3);
  ASSERT_TRUE(later.files.contains("a"));
  EXPECT_EQ(later.files.at("a").step, 2);
  EXPECT_TRUE(forced.Wrote("a", CrcOf(a2_), later.files.at("a").step, 4));
  EXPECT_FALSE(forced.Wrote("a", CrcOf(a0_), later.files.at("a").step, 4));
  // When a delete since the force may have run, the judges ask from -1
  // (deleting the newest version brings the one before back): a0 passes.
  EXPECT_TRUE(forced.Wrote("a", CrcOf(a0_), -1, 4));
}

TEST_F(HistoryTest, ContentFirstWrittenAfterTheCrashStepIsRefused) {
  EXPECT_FALSE(history_.Wrote("a", CrcOf(a2_), -1, 1));
  EXPECT_TRUE(history_.Wrote("a", CrcOf(a2_), -1, 2));
  EXPECT_FALSE(history_.Wrote("a", CrcOf(a6_), -1, 5));
  EXPECT_TRUE(history_.Wrote("a", CrcOf(a6_), -1, 6));
  // A force covers the content the file held when it ran.
  EXPECT_EQ(history_.ForcedBefore(7).step, 5);
  EXPECT_FALSE(history_.ForcedBefore(7).files.contains("a"));
  EXPECT_EQ(history_.ForcedBefore(7).files.at("b").step, 3);
}

TEST_F(HistoryTest, OnlyADeleteBetweenTheForceAndTheCrashExplainsAbsence) {
  // Crash inside step 4 (the delete itself) or 5: a was forced at step 1
  // and the delete at step 4 may have committed.
  EXPECT_TRUE(history_.DeletedIn("a", 1, 4));
  EXPECT_TRUE(history_.DeletedIn("a", 1, 5));
  // Crash inside step 3: the delete had not run yet.
  EXPECT_FALSE(history_.DeletedIn("a", 1, 3));
  // The force at step 5 ran after the delete; it explains nothing later.
  EXPECT_FALSE(history_.DeletedIn("a", 5, 6));
  // b was never deleted.
  EXPECT_FALSE(history_.DeletedIn("b", -1, 6));
}

TEST_F(HistoryTest, NameCreatedAfterTheCrashStepIsAGhost) {
  EXPECT_FALSE(history_.CreatedBy("b", 2));
  EXPECT_TRUE(history_.CreatedBy("b", 3));
  EXPECT_TRUE(history_.CreatedBy("a", 0));
  EXPECT_FALSE(history_.CreatedBy("never", 6));
}

// A write is clamped to the file's current size exactly as ApplyTraceOp
// clamps it on a volume: a write running off the end keeps its in-bounds
// bytes, and one wholly past the end or on an absent name changes nothing.
TEST_F(HistoryTest, WriteClampsToTheCurrentContent) {
  const TraceEntry off_the_end{TraceOp::kWrite, "a", 800, 300, 9};
  EXPECT_TRUE(history_.Apply(7, off_the_end));  // a holds 900 bytes
  EXPECT_FALSE(history_.Apply(8, TraceEntry{TraceOp::kWrite, "a", 900, 10}));
  EXPECT_FALSE(
      history_.Apply(9, TraceEntry{TraceOp::kWrite, "gone", 0, 10}));
  ASSERT_EQ(history_.contents().at("a").size(), 4u);
  EXPECT_EQ(history_.contents().at("a").back().step, 7);

  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  Fsd fsd(&disk, CrashHarness::FsdConfigFor(false));
  ASSERT_TRUE(fsd.Format().ok());
  ASSERT_TRUE(ApplyStep(&fsd, steps_[6]).ok());
  ASSERT_TRUE(ApplyStep(&fsd, off_the_end).ok());
  Result<FileCrc> got = ReadFileCrc(&fsd, "a");
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got->second, 900u);
  EXPECT_TRUE(history_.Wrote("a", *got, 7, 7));
}

// A miss ApplyTraceOp would tolerate fails the step with kNotFound, so
// neither judge mistakes it for a step that ran. Think time is a no-op.
TEST(ApplyStepTest, ToleratedMissFailsTheStep) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  Fsd fsd(&disk, CrashHarness::FsdConfigFor(false));
  ASSERT_TRUE(fsd.Format().ok());
  for (const TraceOp op : {TraceOp::kWrite, TraceOp::kClose,
                           TraceOp::kDelete, TraceOp::kTouch}) {
    const Status status = ApplyStep(&fsd, TraceEntry{op, "ghost", 0, 10});
    EXPECT_EQ(status.code(), ErrorCode::kNotFound)
        << static_cast<int>(op) << ": " << status.message();
  }
  EXPECT_TRUE(ApplyStep(&fsd, TraceEntry{TraceOp::kAdvance, "", 5}).ok());
}

// A volume whose forced file holds the content it had before the write the
// force covered. FSD never rolls a forced file back, so no sweep reaches
// this reject path; here both judges are handed it.
class RolledBackFileTest : public ::testing::Test {
 protected:
  // 0 creates a, 1 and 2 overwrite and close it, 3 forces: the force
  // covers a as step 1 left it.
  RolledBackFileTest()
      : steps_{{TraceOp::kCreate, "a", 1000, 1},
               {TraceOp::kWrite, "a", 100, 200, 2},
               {TraceOp::kClose, "a"},
               {TraceOp::kForce, ""}} {
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      history_.Apply(static_cast<int>(s), steps_[s]);
    }
  }

  // A base volume that ran the first `steps` steps and then a force.
  std::unique_ptr<Fsd> Volume(std::size_t steps) {
    CEDAR_CHECK_OK(FormatBaseVolume(&disk_, config_));
    auto fsd = std::make_unique<Fsd>(&disk_, config_);
    CEDAR_CHECK_OK(fsd->Mount());
    for (std::size_t s = 0; s < steps; ++s) {
      CEDAR_CHECK_OK(ApplyStep(fsd.get(), steps_[s]));
    }
    CEDAR_CHECK_OK(fsd->Force());
    return fsd;
  }

  const FsdConfig config_ = CrashHarness::FsdConfigFor(false);
  sim::VirtualClock clock_;
  sim::SimDisk disk_{sim::TestGeometry(), sim::DiskTimingParams{}, &clock_};
  std::vector<TraceEntry> steps_;
  History history_;
};

TEST_F(RolledBackFileTest, HarnessJudgeRefusesIt) {
  const int after = static_cast<int>(steps_.size());
  EXPECT_EQ(CrashHarness::JudgeFiles(Volume(steps_.size()).get(), history_,
                                     after, ""),
            "");
  const std::string why =
      CrashHarness::JudgeFiles(Volume(1).get(), history_, after, "");
  EXPECT_EQ(why.rfind("durability: forced file 'a' has unacceptable", 0),
            0u)
      << why;
}

TEST_F(RolledBackFileTest, CampaignJudgeRefusesIt) {
  const int end = static_cast<int>(steps_.size());
  CampaignCase intact;
  FaultCampaign::JudgeFiles(Volume(steps_.size()).get(), history_, end, {},
                            &intact);
  EXPECT_EQ(intact.failure, "");
  CampaignCase rolled_back;
  FaultCampaign::JudgeFiles(Volume(1).get(), history_, end, {},
                            &rolled_back);
  EXPECT_EQ(rolled_back.escapes, 1u);
  EXPECT_EQ(rolled_back.failure.rfind("SILENT CORRUPTION: 'a'", 0), 0u)
      << rolled_back.failure;
}

// The base image's file is in every History, durable before step 0.
TEST(HistoryBaselineTest, BaselineCountsAsDurable) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const FsdConfig config = CrashHarness::FsdConfigFor(false);
  ASSERT_TRUE(FormatBaseVolume(&disk, config).ok());
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Mount().ok());
  Result<FileCrc> base = ReadFileCrc(&fsd, "base");
  ASSERT_TRUE(base.ok()) << base.status().message();

  const History history;
  const ForcePoint fp = history.ForcedBefore(0);
  EXPECT_EQ(fp.step, -1);
  ASSERT_TRUE(fp.files.contains("base"));
  EXPECT_EQ(fp.files.at("base").crc, base->first);
  EXPECT_TRUE(history.Wrote("base", *base, -1, -1));
  EXPECT_TRUE(history.CreatedBy("base", -1));
  EXPECT_EQ(history.contents().size(), 1u);
}

// The probe reads back what it wrote on a writable volume; on a read-only
// one the failing call's code and name come back.
TEST(HistoryBaselineTest, ProbeNamesTheCallThatFailed) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const FsdConfig config = CrashHarness::FsdConfigFor(false);
  ASSERT_TRUE(FormatBaseVolume(&disk, config).ok());
  {
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.MountDegraded().ok());
    Result<bool> probe = ProbeVolume(&fsd);
    ASSERT_FALSE(probe.ok());
    EXPECT_EQ(probe.status().code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(probe.status().message().rfind("probe create failed: ", 0),
              0u)
        << probe.status().message();
  }
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Mount().ok());
  Result<bool> probe = ProbeVolume(&fsd);
  ASSERT_TRUE(probe.ok()) << probe.status().message();
  EXPECT_TRUE(*probe);
}

// ---------------------------------------------------------------------------
// The harness itself.

TEST(CrashHarnessTest, BoundedSweepPassesPlainMode) {
  HarnessOptions options;
  options.vam_logging = false;
  options.max_cases = 120;
  options.double_crash_points = 1;
  CrashHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->enumerated, options.max_cases);
  EXPECT_GT(report->double_crash_cases, 0u);
  for (const CaseResult& r : report->results) {
    EXPECT_TRUE(r.pass) << "w" << r.c.plan.at_write_index << " ["
                        << r.c.variant << "]: " << r.failure;
  }
}

TEST(CrashHarnessTest, BoundedSweepPassesVamLoggingMode) {
  HarnessOptions options;
  options.vam_logging = true;
  options.max_cases = 120;
  options.double_crash_points = 1;
  CrashHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->AllPassed()) << report->results.size() << " cases";
}

// The same bounded sweep with the smallest cache FSD allows. The standard
// workload's name table peaks at 11 live pages, so 16 frames never evict;
// 8 frames evict both while the schedule is recorded and in the recovery
// mount's preload, so cuts, replay and the VAM rebuild run under eviction.
TEST(CrashHarnessTest, BoundedSweepPassesUnderCacheEviction) {
  for (const bool vam_logging : {false, true}) {
    HarnessOptions options;
    options.vam_logging = vam_logging;
    options.cache_frames = 8;
    options.max_cases = 120;
    options.double_crash_points = 1;
    CrashHarness harness(options);
    auto report = harness.Run();
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_GT(report->enumerated, options.max_cases);
    for (const CaseResult& r : report->results) {
      EXPECT_TRUE(r.pass) << (vam_logging ? "vamlog" : "plain") << " w"
                          << r.c.plan.at_write_index << " [" << r.c.variant
                          << "]: " << r.failure;
    }
  }
}

// The bounded sweep with the continuous checkpoint round on at the smallest
// window Validate() allows. Commit stays inline, so the rounds step at the
// forcing step's tail — deterministic, hence replayable cut by cut. The
// recording must run real rounds (more checkpoint batches than the
// workload's own Checkpoint() steps), and every cut inside their home
// batches and pointer advances must recover.
TEST(CrashHarnessTest, BoundedSweepPassesWithSteppedCheckpointRounds) {
  for (const bool vam_logging : {false, true}) {
    SCOPED_TRACE(vam_logging ? "vamlog" : "plain");
    HarnessOptions options;
    options.vam_logging = vam_logging;
    options.checkpoint_daemon = true;
    options.max_cases = 120;
    options.double_crash_points = 1;
    CrashHarness harness(options);
    auto report = harness.Run();
    ASSERT_TRUE(report.ok()) << report.status().message();
    const RecordedRun& run = report->run;
    std::uint64_t checkpoint_steps = 0;
    for (const TraceEntry& step : run.steps) {
      checkpoint_steps += step.op == TraceOp::kCheckpoint ? 1 : 0;
    }
    EXPECT_GT(run.metrics.CounterValue("fsd.ckpt_batches"), checkpoint_steps)
        << "no checkpoint round ran while recording";
    EXPECT_EQ(report->failed(), 0u);
    for (const CaseResult& r : report->results) {
      EXPECT_TRUE(r.pass) << "w" << r.c.plan.at_write_index << " ["
                          << r.c.variant << "]: " << r.failure;
    }
  }
}

// The standard workload must keep giving the enumerator real material:
// multi-write IoScheduler batches (otherwise the reorder variants are
// vacuous) and mid-workload third-entry home writes (log wrap). A workload or
// scheduler change that silently loses that coverage fails here.
TEST(CrashHarnessTest, StandardWorkloadYieldsReorderCoverage) {
  HarnessOptions options;
  options.max_cases = 1;  // recording alone decides this test
  options.double_crash_points = 0;
  CrashHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  const RecordedRun& run = report->run;

  bool multi_write_batch = false;
  for (std::size_t i = 1; i < run.writes.size(); ++i) {
    if (run.writes[i].batch != 0 &&
        run.writes[i].batch == run.writes[i - 1].batch) {
      multi_write_batch = true;
    }
  }
  EXPECT_TRUE(multi_write_batch)
      << "no IoScheduler batch with >= 2 writes in the recorded schedule";

  bool mid_workload_flush = false;
  bool mid_workload_ckpt = false;
  for (const ScheduleEntry& e : run.writes) {
    mid_workload_flush = mid_workload_flush || e.op == "fsd.flush_third";
    mid_workload_ckpt = mid_workload_ckpt || e.op == "fsd.ckpt";
  }
  EXPECT_TRUE(mid_workload_flush)
      << "the workload no longer wraps the log (no third-entry home writes)";
  // The kCheckpoint steps must produce real checkpoint writes (home batches
  // and a pointer advance) for the enumerator to cut inside — losing them
  // silently would un-test the continuous-checkpoint crash surface.
  EXPECT_TRUE(mid_workload_ckpt)
      << "no checkpoint writes recorded (kCheckpoint steps became no-ops)";
}

// A replay with no crash armed issues exactly the recorded schedule. The
// base snapshot carries the clock and head position, so a replay stamps
// the recording's times, and the varint-coded name-table entries (whose
// size depends on those times) split pages at the same writes. Without
// the rewind, a replay after another case drifts, and cuts land on the
// wrong write or never fire.
TEST(CrashHarnessTest, UnarmedReplayIssuesTheRecordedSchedule) {
  for (const Topology topology : {Topology::kSingle, Topology::kStriped}) {
    for (const bool vam_logging : {false, true}) {
      SCOPED_TRACE(std::string(topology == Topology::kSingle ? "single"
                                                             : "striped") +
                   (vam_logging ? " vamlog" : " plain"));
      HarnessOptions options;
      options.topology = topology;
      options.vam_logging = vam_logging;
      options.max_cases = 1;
      options.double_crash_points = 0;
      CrashHarness harness(options);
      auto report = harness.Run();
      ASSERT_TRUE(report.ok()) << report.status().message();
      auto again = harness.ReplaySchedule();
      ASSERT_TRUE(again.ok()) << again.status().message();
      const std::vector<ScheduleEntry>& recorded = report->run.writes;
      ASSERT_EQ(again->size(), recorded.size());
      for (std::size_t i = 0; i < recorded.size(); ++i) {
        ASSERT_EQ((*again)[i].lba, recorded[i].lba) << "write " << i;
        ASSERT_EQ((*again)[i].sectors, recorded[i].sectors) << "write " << i;
        ASSERT_EQ((*again)[i].op, recorded[i].op) << "write " << i;
      }
    }
  }
}

// The workload's free-page phase must keep cutting inside both droppers of
// a freed leaf's log record, in both recovery modes: the Checkpoint() right
// after the first leaf is emptied writes pages home, and the force right
// after the second leaf is emptied enters the third holding that leaf's
// record and writes pages home there. A workload or log-sizing change that
// shifts either window away fails here.
TEST(CrashHarnessTest, FreePagePhaseCutsCheckpointAndThirdEntry) {
  for (const bool vam_logging : {false, true}) {
    SCOPED_TRACE(vam_logging ? "vamlog" : "plain");
    HarnessOptions options;
    options.vam_logging = vam_logging;
    options.max_cases = 1;  // recording alone decides this test
    options.double_crash_points = 0;
    CrashHarness harness(options);
    auto report = harness.Run();
    ASSERT_TRUE(report.ok()) << report.status().message();
    const RecordedRun& run = report->run;
    const core::FsdLayout layout = core::FsdLayout::Compute(
        sim::TestGeometry(), CrashHarness::FsdConfigFor(vam_logging));
    // Home writes of `op` during step `s`, not counting the VAM base save.
    auto home_writes = [&](std::size_t s, const std::string& op) {
      int n = 0;
      for (std::uint64_t w = run.bounds[s].writes_before;
           w < run.bounds[s].writes_after; ++w) {
        const ScheduleEntry& e = run.writes[w];
        const bool vam = e.lba >= layout.vam_base &&
                         e.lba < layout.vam_base + layout.vam_sectors;
        n += e.op == op && !vam ? 1 : 0;
      }
      return n;
    };
    std::size_t last_checkpoint = 0;
    for (std::size_t s = 0; s < run.steps.size(); ++s) {
      if (run.steps[s].op == TraceOp::kCheckpoint) {
        last_checkpoint = s;
      }
    }
    ASSERT_EQ(run.steps[last_checkpoint - 1].op, TraceOp::kDelete);
    EXPECT_GT(home_writes(last_checkpoint, "fsd.ckpt"), 0);
    const std::size_t last_force = run.steps.size() - 2;
    ASSERT_EQ(run.steps[last_force].op, TraceOp::kForce);
    ASSERT_EQ(run.steps[last_force - 1].op, TraceOp::kDelete);
    // Primary and replica sweeps of the third-entry checkpoint.
    EXPECT_GE(home_writes(last_force, "fsd.flush_third"), 2);
  }
}

// ---------------------------------------------------------------------------
// Transient (soft) read errors: bounded retry, then surfaced.

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  return workload::Payload(n, seed);
}

FsdConfig SmallConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  config.cache_frames = 512;
  return config;
}

TEST(TransientReadErrorTest, RetriedWithinLimitAndCounted) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  {
    Fsd fsd(&disk, SmallConfig());
    ASSERT_TRUE(fsd.Format().ok());
    ASSERT_TRUE(fsd.CreateFile("glitch", Bytes(900, 9)).ok());
    ASSERT_TRUE(fsd.Shutdown().ok());
  }
  // Two soft failures on the volume root: Mount's first read hits them and
  // must retry (limit is 3) rather than fail.
  disk.InjectTransientReadError(/*lba=*/0, /*failures=*/2);
  Fsd fsd(&disk, SmallConfig());
  ASSERT_TRUE(fsd.Mount().ok());
  EXPECT_EQ(fsd.SnapshotMetrics().CounterValue("fsd.read_retries"), 2u);
  auto handle = fsd.Open("glitch");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(handle->byte_size);
  EXPECT_TRUE(fsd.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(900, 9));
}

TEST(TransientReadErrorTest, ExhaustedRetriesSurfaceTheError) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  {
    Fsd fsd(&disk, SmallConfig());
    ASSERT_TRUE(fsd.Format().ok());
    ASSERT_TRUE(fsd.Shutdown().ok());
  }
  // More failures than 1 + MediaHealth::kReadRetryLimit attempts: the error
  // surfaces.
  disk.InjectTransientReadError(/*lba=*/0, /*failures=*/10);
  Fsd fsd(&disk, SmallConfig());
  Status mounted = fsd.Mount();
  ASSERT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.code(), ErrorCode::kReadTransient);
  EXPECT_EQ(fsd.SnapshotMetrics().CounterValue("fsd.read_retries"),
            core::MediaHealth::kReadRetryLimit);
}

// ---------------------------------------------------------------------------
// Crashed-disk snapshot / image fidelity (the clone the harness replays
// from must preserve damage and armed-crash state bit-for-bit).

TEST(CrashedDiskCloneTest, SnapshotAndImageRoundTripPreserveCrashState) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  std::vector<std::uint8_t> sector(512, 0xAB);

  sim::CrashPlan plan;
  plan.at_write_index = 3;
  plan.sectors_completed = 1;
  plan.sectors_damaged = 1;
  plan.drop_writes = {1};
  disk.ArmCrash(plan);
  disk.InjectTransientReadError(/*lba=*/40, /*failures=*/2);

  // Writes 0..2 (write 1 dropped), then write 3 tears and crashes.
  for (std::uint64_t w = 0; w < 3; ++w) {
    ASSERT_TRUE(disk.Write(10 + 2 * w, sector).ok());
  }
  std::vector<std::uint8_t> torn(2 * 512, 0xCD);
  ASSERT_FALSE(disk.Write(30, torn).ok());
  ASSERT_TRUE(disk.crashed());

  const sim::DiskSnapshot snapshot = disk.Snapshot();
  ASSERT_TRUE(disk.StateEquals(snapshot));

  // In-memory restore round-trips onto a disturbed disk.
  disk.Reopen();
  std::vector<std::uint8_t> scratch(512);
  ASSERT_TRUE(disk.Read(10, scratch).ok());
  disk.Restore(snapshot);
  EXPECT_TRUE(disk.StateEquals(snapshot));

  // The on-disk image format round-trips the same state into a new device.
  const std::string path = ::testing::TempDir() + "/crashed.img";
  ASSERT_TRUE(disk.SaveImage(path).ok());
  sim::SimDisk copy(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  ASSERT_TRUE(copy.LoadImage(path).ok());
  EXPECT_TRUE(copy.StateEquals(snapshot));

  // And the copy honours the restored damage map: the sector the torn cut
  // destroyed stays unreadable after the clone.
  copy.Reopen();  // clear crashed() but keep the damage map
  Status read = copy.Read(31, std::span<std::uint8_t>(scratch.data(), 512));
  EXPECT_FALSE(read.ok()) << "sector damaged by the torn cut must stay bad";
}

// ---------------------------------------------------------------------------
// Double crash: a second cut during log replay, then recovery again.

TEST(DoubleCrashTest, CrashDuringReplayThenRecoverAgain) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  {
    Fsd fsd(&disk, SmallConfig());
    ASSERT_TRUE(fsd.Format().ok());
    ASSERT_TRUE(fsd.CreateFile("stable", Bytes(1300, 21)).ok());
    ASSERT_TRUE(fsd.Force().ok());
    // Unforced tail whose log records the first recovery replays.
    ASSERT_TRUE(fsd.CreateFile("tail1", Bytes(800, 23)).ok());
    ASSERT_TRUE(fsd.CreateFile("tail2", Bytes(600, 25)).ok());
    ASSERT_TRUE(fsd.Force().ok());
    // Crash on the in-flight create's first write.
    disk.ArmCrash(CleanCut(0));
    (void)fsd.CreateFile("doomed", Bytes(700, 27));
    (void)fsd.Force();
  }
  ASSERT_TRUE(disk.crashed());

  // First recovery, itself cut short at each of its first few writes; each
  // truncated attempt must leave a volume the NEXT recovery fully heals.
  for (std::uint64_t recrash = 0; recrash < 3; ++recrash) {
    const sim::DiskSnapshot crashed = disk.Snapshot();
    disk.Reopen();
    disk.ArmCrash(CleanCut(recrash));
    {
      Fsd fsd(&disk, SmallConfig());
      (void)fsd.Mount();  // may fail — the cut may land mid-replay
    }
    if (disk.crashed()) {
      disk.Reopen();
      Fsd fsd(&disk, SmallConfig());
      ASSERT_TRUE(fsd.Mount().ok()) << "recrash@" << recrash;
      auto fsck = fsd.Fsck();
      ASSERT_TRUE(fsck.ok());
      EXPECT_TRUE(fsck->Clean()) << fsck->Summary();
      auto handle = fsd.Open("stable");
      ASSERT_TRUE(handle.ok()) << "forced file lost after double crash";
      std::vector<std::uint8_t> out(handle->byte_size);
      ASSERT_TRUE(fsd.Read(*handle, 0, out).ok());
      EXPECT_EQ(out, Bytes(1300, 21));
    }
    disk.Restore(crashed);
  }
}

// ---------------------------------------------------------------------------
// Scrub() after DamageTrack(): reconcile a volume that lost a whole track.

TEST(ScrubAfterDamageTest, ScrubHealsTrackLossEndToEnd) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  {
    Fsd setup(&disk, SmallConfig());
    ASSERT_TRUE(setup.Format().ok());
    for (int i = 0; i < 30; ++i) {
      // Whole-sector sizes so the in-place restore below never needs a
      // read-modify-write against a still-damaged sector.
      ASSERT_TRUE(
          setup.CreateFile("t/f" + std::to_string(i), Bytes(1024, 31)).ok());
    }
    ASSERT_TRUE(setup.Shutdown().ok());
  }

  // Lose the track that holds the first PRIMARY name-table pages: Mount's
  // preload repairs them from their replicas.
  Fsd fsd(&disk, SmallConfig());
  const auto nt_chs = disk.geometry().ToChs(
      fsd.layout().NtHome(core::FsdLayout::kPrimary, 0));
  disk.DamageTrack(nt_chs.cylinder, nt_chs.head);
  ASSERT_TRUE(fsd.Mount().ok());

  // Then lose a track of the small-file area (leader pages + data) and let
  // Scrub rebuild the leaders from the surviving name-table entries.
  const auto data_chs = disk.geometry().ToChs(
      core::RunAllocator::FirstSmallFileStart(fsd.layout(), 1));
  disk.DamageTrack(data_chs.cylinder, data_chs.head);
  auto report = fsd.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->leaders_repaired, 1u);

  // Every file opens again (metadata healed); restore the lost data bytes
  // in place, after which contents verify and fsck finds nothing.
  for (int i = 0; i < 30; ++i) {
    auto handle = fsd.Open("t/f" + std::to_string(i));
    ASSERT_TRUE(handle.ok()) << i;
    ASSERT_TRUE(fsd.Write(*handle, 0, Bytes(1024, 31)).ok()) << i;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(fsd.Read(*handle, 0, out).ok()) << i;
    EXPECT_EQ(out, Bytes(1024, 31)) << i;
  }
  auto fsck = fsd.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->Summary();

  // And the healed volume survives a clean restart.
  ASSERT_TRUE(fsd.Shutdown().ok());
  Fsd again(&disk, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto fsck2 = again.Fsck();
  ASSERT_TRUE(fsck2.ok());
  EXPECT_TRUE(fsck2->Clean()) << fsck2->Summary();
}

// ---------------------------------------------------------------------------
// Regression: a force spanning several log records must be atomic. Before
// the AppendGroup rework each record was its own commit group, so a crash
// between a group's records replayed a prefix of the force — exactly the
// torn multi-page B-tree update the log exists to prevent.

core::PageImage GroupPage(sim::Lba primary, std::uint8_t fill) {
  core::PageImage page;
  page.primary = primary;
  page.secondary = primary + 4096;
  page.data.assign(512, fill);
  return page;
}

TEST(ForceGroupAtomicityTest, CrashBetweenGroupRecordsReplaysNothing) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  obs::MetricsRegistry metrics;
  core::FsdLog log(&disk, /*base=*/100, /*size_sectors=*/400, &metrics);
  ASSERT_TRUE(log.Format(1).ok());

  // 60 pages = two records (52 + 8). The group append issues one disk
  // write per record; cutting cleanly at the second (write index 1 after
  // arming) leaves record 1 of 2 on disk.
  std::vector<core::PageImage> group;
  for (std::uint32_t p = 0; p < 60; ++p) {
    group.push_back(GroupPage(1000 + 2 * p, static_cast<std::uint8_t>(p)));
  }
  ASSERT_LE(group.size(), log.MaxGroupPages());
  disk.ArmCrash(CleanCut(1));
  auto lsn = log.AppendGroup(group, [](std::uint64_t) { return OkStatus(); });
  ASSERT_FALSE(lsn.ok());
  ASSERT_TRUE(disk.crashed());

  disk.Reopen();
  core::FsdLog recovered(&disk, /*base=*/100, /*size_sectors=*/400,
                         &metrics);
  std::uint64_t pages_delivered = 0;
  ASSERT_TRUE(recovered
                  .Recover(
                      [&](std::uint64_t,
                          const std::vector<core::PageImage>& pages) {
                        pages_delivered += pages.size();
                        return OkStatus();
                      },
                      /*boot_count=*/2)
                  .ok());
  EXPECT_EQ(pages_delivered, 0u)
      << "a partial commit group must be discarded, not replayed";
}

TEST(ForceGroupAtomicityTest, IntactGroupReplaysEveryPage) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  obs::MetricsRegistry metrics;
  core::FsdLog log(&disk, /*base=*/100, /*size_sectors=*/400, &metrics);
  ASSERT_TRUE(log.Format(1).ok());
  std::vector<core::PageImage> group;
  for (std::uint32_t p = 0; p < 60; ++p) {
    group.push_back(GroupPage(1000 + 2 * p, static_cast<std::uint8_t>(p)));
  }
  ASSERT_TRUE(
      log.AppendGroup(group, [](std::uint64_t) { return OkStatus(); }).ok());

  core::FsdLog recovered(&disk, /*base=*/100, /*size_sectors=*/400,
                         &metrics);
  std::uint64_t pages_delivered = 0;
  std::uint64_t records = 0;
  ASSERT_TRUE(recovered
                  .Recover(
                      [&](std::uint64_t,
                          const std::vector<core::PageImage>& pages) {
                        ++records;
                        pages_delivered += pages.size();
                        return OkStatus();
                      },
                      /*boot_count=*/2)
                  .ok());
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(pages_delivered, 60u);
}

// ---------------------------------------------------------------------------
// Media fault AND crash cut in the same run: the primary name-table homes
// die under the running volume, then the disk crashes mid-commit. Recovery
// must replay the log with the defects still armed, serve every surviving
// page from its replica, and remap or repair around the dead
// sectors — every acknowledged file intact afterwards.

TEST(FaultPlusCrashTest, RecoveryHealsFromReplicaAcrossACrashCut) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  std::vector<std::string> acknowledged;
  core::FsdLayout layout;
  {
    Fsd fsd(&disk, SmallConfig());
    layout = fsd.layout();
    ASSERT_TRUE(fsd.Format().ok());
    for (int i = 0; i < 20; ++i) {
      const std::string name = "mix/a" + std::to_string(i);
      ASSERT_TRUE(fsd.CreateFile(name, Bytes(1000, 51)).ok());
      acknowledged.push_back(name);
    }
    ASSERT_TRUE(fsd.Force().ok());

    // The primary name-table homes grow dead sectors under load...
    for (std::uint32_t pid = 0; pid < 4; ++pid) {
      disk.InjectPersistentFault(
          layout.NtHome(core::FsdLayout::kPrimary, pid),
          sim::FaultMode::kDead);
    }
    // ...and a few writes later the whole disk crashes mid-commit.
    disk.ArmCrash(CleanCut(6));
    for (int i = 0; i < 20; ++i) {
      const std::string name = "mix/b" + std::to_string(i);
      if (!fsd.CreateFile(name, Bytes(1000, 53)).ok()) {
        break;
      }
      if (!fsd.Force().ok()) {
        break;
      }
      acknowledged.push_back(name);
    }
  }
  ASSERT_TRUE(disk.crashed());

  // The defects survive the crash: replay runs with the dead primaries
  // still armed and must leave a clean volume anyway.
  disk.Reopen();
  ASSERT_TRUE(
      disk.PersistentFault(layout.NtHome(core::FsdLayout::kPrimary, 0))
          .has_value());
  {
    Fsd fsd(&disk, SmallConfig());
    ASSERT_TRUE(fsd.Mount().ok());
    auto fsck = fsd.Fsck();
    ASSERT_TRUE(fsck.ok());
    EXPECT_TRUE(fsck->Clean()) << fsck->Summary();
    for (const std::string& name : acknowledged) {
      auto handle = fsd.Open(name);
      ASSERT_TRUE(handle.ok()) << "acknowledged " << name << " lost";
      const std::uint8_t seed = name[4] == 'a' ? 51 : 53;
      std::vector<std::uint8_t> out(handle->byte_size);
      ASSERT_TRUE(fsd.Read(*handle, 0, out).ok()) << name;
      EXPECT_EQ(out, Bytes(1000, seed)) << name << " corrupt after recovery";
    }
    // Shutdown flushes every dirty page home, so by now the dead primaries
    // have been written around: repaired from the replica or remapped.
    ASSERT_TRUE(fsd.Shutdown().ok());
    EXPECT_GE(fsd.Health().repairs + fsd.Health().remaps, 1u);
  }

  // And the healed volume survives a clean restart, defects still armed.
  Fsd again(&disk, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto fsck = again.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->Summary();
}

// ---------------------------------------------------------------------------
// Regression: the clean-mount crash window with VAM logging. Mount used to
// write the unclean volume root BEFORE saving the fresh VAM base, so a
// crash between the two left a stale base whose LSN exceeded every delta
// the new boot would log — recovery then skipped those deltas and the VAM
// could hand out live sectors. Every write of the clean-mount sequence is
// a crash point here; each must recover to a volume that fsck passes and
// that allocates fresh space correctly.

TEST(CleanMountCrashWindowTest, EveryMountWriteIsASafeCrashPoint) {
  FsdConfig config = SmallConfig();
  config.durability.vam_logging = true;

  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  {
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.Format().ok());
    ASSERT_TRUE(fsd.CreateFile("keep", Bytes(1100, 41)).ok());
    ASSERT_TRUE(fsd.Shutdown().ok());
  }
  const sim::DiskSnapshot clean = disk.Snapshot();

  for (std::uint64_t w = 0;; ++w) {
    disk.Restore(clean);
    disk.Reopen();
    disk.ArmCrash(CleanCut(w));
    {
      Fsd fsd(&disk, config);
      Status mounted = fsd.Mount();
      if (mounted.ok() && !disk.crashed()) {
        // Past the end of the mount sequence; also run the workload's
        // first steps so a crash point just after mount is covered too.
        break;
      }
    }
    ASSERT_TRUE(disk.crashed());
    disk.Reopen();
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.Mount().ok()) << "w" << w;
    auto fsck = fsd.Fsck();
    ASSERT_TRUE(fsck.ok()) << "w" << w;
    EXPECT_TRUE(fsck->Clean()) << "w" << w << ": " << fsck->Summary();

    // The allocation probe: if the VAM resurrected stale state, this
    // create lands on live sectors and corrupts "keep".
    ASSERT_TRUE(fsd.CreateFile("probe", Bytes(1500, 43)).ok()) << "w" << w;
    ASSERT_TRUE(fsd.Force().ok());
    auto handle = fsd.Open("keep");
    ASSERT_TRUE(handle.ok()) << "w" << w;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(fsd.Read(*handle, 0, out).ok()) << "w" << w;
    EXPECT_EQ(out, Bytes(1100, 41)) << "w" << w;
  }
}

// The persistent-fault class aims its "data" faults at file sectors; they
// only test anything if the workload's files occupy those sectors, so
// every such fault must sit in an allocated sector when the workload ends.
TEST(FaultCampaignTest, DataFaultsLandOnAllocatedFileSectors) {
  CampaignOptions options;
  options.seeds = 64;
  options.classes = {FaultClass::kPersistent};
  FaultCampaign campaign(options);
  auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->AllPassed());
  std::uint64_t data_faults = 0;
  std::uint64_t on_files = 0;
  for (const CampaignCase& c : report->results) {
    data_faults += c.data_faults;
    on_files += c.data_faults_on_files;
  }
  EXPECT_GT(data_faults, 10u);
  EXPECT_EQ(on_files, data_faults);
}

// A case replays from the base image and its timeline, so it comes out the
// same alone as after other cases: mixed seed 33 once failed inside a sweep
// and passed alone.
TEST(FaultCampaignTest, CaseOutcomeDoesNotDependOnTheCasesBefore) {
  auto run = [](std::uint64_t seed_base, std::uint64_t seeds) {
    CampaignOptions options;
    options.seeds = seeds;
    options.seed_base = seed_base;
    options.classes = {FaultClass::kMixed};
    auto report = FaultCampaign(options).Run();
    CEDAR_CHECK_OK(report.status());
    return report->results.back();
  };
  const CampaignCase alone = run(33, 1);
  const CampaignCase in_sweep = run(30, 4);
  ASSERT_EQ(alone.seed, 33u);
  ASSERT_EQ(in_sweep.seed, 33u);
  EXPECT_EQ(alone.pass, in_sweep.pass);
  EXPECT_EQ(alone.injected, in_sweep.injected);
  EXPECT_EQ(alone.fault_events, in_sweep.fault_events);
  EXPECT_EQ(alone.failure, in_sweep.failure);
  EXPECT_EQ(alone.injection_log, in_sweep.injection_log);
  EXPECT_EQ(alone.health.notes, in_sweep.health.notes);
}

}  // namespace
}  // namespace cedar::crash
