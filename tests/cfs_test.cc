#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cfs/cfs.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::cfs {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

class CfsTest : public ::testing::Test {
 protected:
  CfsTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        cfs_(&disk_, SmallConfig()) {
    CEDAR_CHECK_OK(cfs_.Format());
  }

  static CfsConfig SmallConfig() {
    CfsConfig config;
    config.nt_page_count = 64;
    return config;
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Cfs cfs_;
};

TEST_F(CfsTest, CreateReadRoundTrip) {
  auto contents = Bytes(1300, 5);
  ASSERT_TRUE(cfs_.CreateFile("Foo.mesa", contents).ok());
  auto handle = cfs_.Open("Foo.mesa");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, 1300u);
  EXPECT_EQ(handle->version, 1u);

  std::vector<std::uint8_t> out(1300);
  ASSERT_TRUE(cfs_.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(CfsTest, ReadAtOffsetAndUnaligned) {
  auto contents = Bytes(2000, 9);
  ASSERT_TRUE(cfs_.CreateFile("f", contents).ok());
  auto handle = cfs_.Open("f");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(700);
  ASSERT_TRUE(cfs_.Read(*handle, 513, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), contents.begin() + 513));
}

TEST_F(CfsTest, ReadPastEndRejected) {
  ASSERT_TRUE(cfs_.CreateFile("f", Bytes(100, 1)).ok());
  auto handle = cfs_.Open("f");
  std::vector<std::uint8_t> out(200);
  EXPECT_EQ(cfs_.Read(*handle, 0, out).code(), ErrorCode::kOutOfRange);
}

TEST_F(CfsTest, EmptyFileHasHeaderOnly) {
  ASSERT_TRUE(cfs_.CreateFile("empty", {}).ok());
  auto handle = cfs_.Open("empty");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, 0u);
}

TEST_F(CfsTest, VersionsIncrement) {
  ASSERT_TRUE(cfs_.CreateFile("v", Bytes(10, 0)).ok());
  ASSERT_TRUE(cfs_.CreateFile("v", Bytes(20, 1)).ok());
  ASSERT_TRUE(cfs_.CreateFile("v", Bytes(30, 2)).ok());
  auto handle = cfs_.Open("v");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 3u);
  EXPECT_EQ(handle->byte_size, 30u);
}

TEST_F(CfsTest, DeleteRemovesHighestVersion) {
  ASSERT_TRUE(cfs_.CreateFile("d", Bytes(10, 0)).ok());
  ASSERT_TRUE(cfs_.CreateFile("d", Bytes(20, 1)).ok());
  ASSERT_TRUE(cfs_.DeleteFile("d").ok());
  auto handle = cfs_.Open("d");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 1u);
  ASSERT_TRUE(cfs_.DeleteFile("d").ok());
  EXPECT_EQ(cfs_.Open("d").status().code(), ErrorCode::kNotFound);
}

TEST_F(CfsTest, DeleteReturnsSpace) {
  const std::uint32_t before = cfs_.FreeSectorsHint();
  ASSERT_TRUE(cfs_.CreateFile("big", Bytes(50 * 512, 3)).ok());
  EXPECT_EQ(cfs_.FreeSectorsHint(), before - 52);  // 2 header + 50 data
  ASSERT_TRUE(cfs_.DeleteFile("big").ok());
  EXPECT_EQ(cfs_.FreeSectorsHint(), before);
}

TEST_F(CfsTest, ListReturnsPropertiesWithPrefixFilter) {
  ASSERT_TRUE(cfs_.CreateFile("proj/a.mesa", Bytes(100, 1)).ok());
  ASSERT_TRUE(cfs_.CreateFile("proj/b.mesa", Bytes(200, 2)).ok());
  ASSERT_TRUE(cfs_.CreateFile("other/c.mesa", Bytes(300, 3)).ok());
  auto list = cfs_.List("proj/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].name, "proj/a.mesa");
  EXPECT_EQ((*list)[0].byte_size, 100u);
  EXPECT_EQ((*list)[1].name, "proj/b.mesa");
  EXPECT_EQ((*list)[1].byte_size, 200u);
}

TEST_F(CfsTest, ListReadsHeadersFromDisk) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cfs_.CreateFile("dir/f" + std::to_string(i), Bytes(64, 0)).ok());
  }
  disk_.ResetStats();
  auto list = cfs_.List("dir/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 20u);
  // One header read per file (name table is warm in cache).
  EXPECT_GE(disk_.stats().reads, 20u);
}

TEST_F(CfsTest, WriteInPlace) {
  ASSERT_TRUE(cfs_.CreateFile("w", Bytes(1024, 0)).ok());
  auto handle = cfs_.Open("w");
  auto patch = Bytes(100, 77);
  ASSERT_TRUE(cfs_.Write(*handle, 500, patch).ok());
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(cfs_.Read(*handle, 500, out).ok());
  EXPECT_EQ(out, patch);
  // Neighbouring bytes undisturbed.
  std::vector<std::uint8_t> head(500);
  ASSERT_TRUE(cfs_.Read(*handle, 0, head).ok());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), Bytes(1024, 0).begin()));
}

TEST_F(CfsTest, ExtendGrowsFile) {
  ASSERT_TRUE(cfs_.CreateFile("e", Bytes(600, 1)).ok());
  auto handle = cfs_.Open("e");
  ASSERT_TRUE(cfs_.Extend(*handle, 1000).ok());
  auto reopened = cfs_.Open("e");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->byte_size, 1600u);
  std::vector<std::uint8_t> tail(1000);
  ASSERT_TRUE(cfs_.Read(*reopened, 600, tail).ok());
  EXPECT_TRUE(std::all_of(tail.begin(), tail.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST_F(CfsTest, TouchUpdatesLastUsed) {
  ASSERT_TRUE(cfs_.CreateFile("t", Bytes(10, 0)).ok());
  auto before = cfs_.Stat("t");
  ASSERT_TRUE(before.ok());
  clock_.Advance(5 * sim::kSecond);
  ASSERT_TRUE(cfs_.Touch("t").ok());
  auto after = cfs_.Stat("t");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->last_used, before->last_used);
}

TEST_F(CfsTest, SmallCreateCostsAtLeastSixIos) {
  disk_.ResetStats();
  ASSERT_TRUE(cfs_.CreateFile("one-byte", Bytes(1, 0)).ok());
  // Paper section 4: verify labels, write header labels, write data label,
  // write header, update name table, write the byte, rewrite header.
  EXPECT_GE(disk_.stats().TotalIos(), 6u);
}

TEST_F(CfsTest, OpenReadsHeaderOnce) {
  ASSERT_TRUE(cfs_.CreateFile("o", Bytes(100, 0)).ok());
  disk_.ResetStats();
  ASSERT_TRUE(cfs_.Open("o").ok());
  EXPECT_EQ(disk_.stats().reads, 1u);  // the header pair
  disk_.ResetStats();
  ASSERT_TRUE(cfs_.Open("o").ok());  // second open hits the open table
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);
}

TEST_F(CfsTest, SurvivesRemount) {
  ASSERT_TRUE(cfs_.CreateFile("persist", Bytes(900, 4)).ok());
  ASSERT_TRUE(cfs_.Shutdown().ok());

  Cfs again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto handle = again.Open("persist");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(900);
  ASSERT_TRUE(again.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(900, 4));
}

TEST_F(CfsTest, StaleVamHintIsRepairedByLabelVerify) {
  // Simulate a stale hint: create a file, then deliberately mark its
  // sectors free in a second instance mounted from an old VAM image.
  ASSERT_TRUE(cfs_.Shutdown().ok());  // VAM snapshot: everything free
  Cfs writer(&disk_, SmallConfig());
  ASSERT_TRUE(writer.Mount().ok());
  ASSERT_TRUE(writer.CreateFile("claimed", Bytes(5000, 1)).ok());
  // Crash without Shutdown: the on-disk VAM still claims those sectors are
  // free.
  Cfs reader(&disk_, SmallConfig());
  ASSERT_TRUE(reader.Mount().ok());
  // Allocation wants the same low sectors; label verification must refuse
  // them and the create must still succeed elsewhere.
  ASSERT_TRUE(reader.CreateFile("newfile", Bytes(5000, 2)).ok());
  auto a = reader.Open("claimed");
  auto b = reader.Open("newfile");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<std::uint8_t> out(5000);
  ASSERT_TRUE(reader.Read(*a, 0, out).ok());
  EXPECT_EQ(out, Bytes(5000, 1));  // not clobbered
}

TEST_F(CfsTest, ScavengeRebuildsNameTableFromLabels) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        cfs_.CreateFile("s/f" + std::to_string(i), Bytes(700 + i, 1)).ok());
  }
  // Wreck the name table region wholesale (memory smash / torn writes).
  for (sim::Lba lba = 0; lba < disk_.geometry().TotalSectors(); ++lba) {
    if (disk_.PeekLabel(lba).type == sim::PageType::kSystem &&
        disk_.PeekLabel(lba).file_uid == 3 /* name table */) {
      disk_.WildWrite(lba, lba);
    }
  }
  Cfs recovered(&disk_, SmallConfig());
  ASSERT_TRUE(recovered.Scavenge().ok());
  auto list = recovered.List("s/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 30u);
  auto handle = recovered.Open("s/f7");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(707);
  ASSERT_TRUE(recovered.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(707, 1));
}

TEST_F(CfsTest, ScavengeAfterTornNameTableWrite) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cfs_.CreateFile("t/f" + std::to_string(i), Bytes(100, 2)).ok());
  }
  // Crash in the middle of the next 4-sector name-table write: 2 sectors
  // new, 1 damaged, 1 old — the non-atomic update of paper section 5.3.
  disk_.ArmCrash(sim::CrashPlan{.at_write_index = 4,  // a name-table write
                                .sectors_completed = 2,
                                .sectors_damaged = 1,
                                .drop_writes = {}});
  // Keep creating until the crash fires.
  Status status = OkStatus();
  for (int i = 0; i < 50 && status.ok(); ++i) {
    status = cfs_.CreateFile("t/g" + std::to_string(i), Bytes(100, 3)).status();
  }
  EXPECT_EQ(status.code(), ErrorCode::kDeviceCrashed);

  disk_.Reopen();
  Cfs recovered(&disk_, SmallConfig());
  ASSERT_TRUE(recovered.Scavenge().ok());
  // All 10 pre-crash files survive.
  auto list = recovered.List("t/f");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 10u);
}

TEST_F(CfsTest, ScavengeTruncatesFileWithStolenPages) {
  ASSERT_TRUE(cfs_.CreateFile("victim", Bytes(4 * 512, 1)).ok());
  // Corrupt the label of the victim's third data page (simulates a bug that
  // reallocated it).
  auto handle = cfs_.Open("victim");
  ASSERT_TRUE(handle.ok());
  // Find the victim's data sectors by scanning labels.
  std::vector<sim::Lba> data;
  for (sim::Lba lba = 0; lba < disk_.geometry().TotalSectors(); ++lba) {
    if (disk_.PeekLabel(lba).file_uid == handle->uid &&
        disk_.PeekLabel(lba).type == sim::PageType::kData) {
      data.push_back(lba);
    }
  }
  ASSERT_EQ(data.size(), 4u);
  const sim::Label stolen{.file_uid = 999999, .page_number = 0,
                          .type = sim::PageType::kData};
  ASSERT_TRUE(disk_.WriteLabels(data[2], {{stolen}}).ok());

  Cfs recovered(&disk_, SmallConfig());
  ASSERT_TRUE(recovered.Scavenge().ok());
  auto stat = recovered.Stat("victim");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->byte_size, 2u * 512);  // truncated at the bad page
}

TEST_F(CfsTest, ManyFilesStressWithOracle) {
  Rng rng(4242);
  std::map<std::string, std::vector<std::uint8_t>> oracle;
  for (int step = 0; step < 300; ++step) {
    const std::string name = "stress/f" + std::to_string(rng.Below(40));
    const std::uint64_t op = rng.Below(10);
    if (op < 5) {
      auto contents = Bytes(rng.Between(1, 3000),
                            static_cast<std::uint8_t>(step));
      ASSERT_TRUE(cfs_.CreateFile(name, contents).ok());
      oracle[name] = contents;
    } else if (op < 7) {
      Status s = cfs_.DeleteFile(name);
      if (oracle.count(name)) {
        // Deleting removes the highest version; our oracle only tracks the
        // latest contents, so re-resolve what remains via Open below.
        ASSERT_TRUE(s.ok());
        auto reopened = cfs_.Open(name);
        if (reopened.ok()) {
          std::vector<std::uint8_t> out(reopened->byte_size);
          ASSERT_TRUE(cfs_.Read(*reopened, 0, out).ok());
          oracle[name] = out;
        } else {
          oracle.erase(name);
        }
      } else {
        EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      }
    } else {
      auto handle = cfs_.Open(name);
      auto it = oracle.find(name);
      ASSERT_EQ(handle.ok(), it != oracle.end()) << name;
      if (handle.ok()) {
        std::vector<std::uint8_t> out(handle->byte_size);
        ASSERT_TRUE(cfs_.Read(*handle, 0, out).ok());
        EXPECT_EQ(out, it->second);
      }
    }
  }
}

}  // namespace
}  // namespace cedar::cfs
