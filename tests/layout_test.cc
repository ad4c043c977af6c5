// The name table's band layout (src/core/layout.h): FsdLayout::NtHome is
// the one page-to-sector mapping, and every geometry FSD runs on must give
// each page two copies on one cylinder, on different tracks, never
// adjacent, with every read-ahead cluster contiguous in each copy.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/array.h"
#include "src/sim/clock.h"
#include "src/sim/geometry.h"

namespace cedar::core {
namespace {

struct Case {
  std::string name;
  sim::DiskGeometry geometry;
  FsdConfig config;
};

FsdConfig Sized(std::uint32_t log_sectors, std::uint32_t nt_pages) {
  FsdConfig config;
  config.log_sectors = log_sectors;
  config.nt_pages = nt_pages;
  return config;
}

// The geometries FSD is run on: the unit tests' disk, the default Trident
// disk, perfbench's 256- and 48-cylinder disks, and the logical geometry a
// 4-member striped array presents (perfbench's bulk-stripe4 sizing).
std::vector<Case> Cases() {
  sim::VirtualClock clock;
  sim::ArrayConfig array;
  array.spindles = 4;
  array.member_geometry = sim::TestGeometry();
  const sim::DiskGeometry striped = sim::DiskArray(array, &clock).geometry();
  sim::DiskGeometry bench256;
  bench256.cylinders = 256;
  sim::DiskGeometry bench48;
  bench48.cylinders = 48;
  sim::DiskGeometry stripe4_of_96;
  stripe4_of_96.cylinders = 4 * 96;
  return {
      {"test-small", sim::TestGeometry(), Sized(400, 256)},
      {"test-default-config", sim::TestGeometry(), FsdConfig{}},
      {"default", sim::DiskGeometry{}, FsdConfig{}},
      {"bench-256", bench256, FsdConfig{}},
      {"bench-48", bench48, Sized(800, 512)},
      {"stripe4-test-members", striped, Sized(400, 256)},
      {"stripe4-of-96", stripe4_of_96, Sized(800, 512)},
  };
}

TEST(LayoutTest, BandSizeIsTheLargestClusterMultipleInHalfACylinder) {
  EXPECT_EQ(FsdLayout::NtBandPages(sim::DiskGeometry{}, FsdConfig{}), 264u);
  EXPECT_EQ(FsdLayout::NtBandPages(sim::TestGeometry(), FsdConfig{}), 112u);
}

TEST(LayoutTest, EveryPageHasTwoHomesOnOneCylinderOnDifferentTracks) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.config.Validate(c.geometry).ok());
    const FsdLayout layout = FsdLayout::Compute(c.geometry, c.config);
    for (std::uint32_t pid = 0; pid < c.config.nt_pages; ++pid) {
      const sim::Lba primary = layout.NtHome(FsdLayout::kPrimary, pid);
      const sim::Lba replica = layout.NtHome(FsdLayout::kReplica, pid);
      const sim::Chs a = c.geometry.ToChs(primary);
      const sim::Chs b = c.geometry.ToChs(replica);
      ASSERT_EQ(a.cylinder, b.cylinder) << "page " << pid;
      ASSERT_NE(a.head, b.head) << "page " << pid;
      ASSERT_GE(replica - primary, 2u) << "page " << pid;
      for (const sim::Lba home : {primary, replica}) {
        ASSERT_GE(home, layout.nt_base) << "page " << pid;
        ASSERT_LT(home, layout.nt_end) << "page " << pid;
        ASSERT_TRUE(layout.InMetadataComplex(home)) << "page " << pid;
      }
    }
  }
}

TEST(LayoutTest, AreasAreDisjointAndTheComplexIsNeverFileSpace) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const FsdLayout layout = FsdLayout::Compute(c.geometry, c.config);
    // Root copies, VAM, remap region and data area follow one another.
    EXPECT_LE(layout.root_lba + 3, layout.vam_base);
    EXPECT_EQ(layout.vam_base + layout.vam_sectors, layout.remap_base);
    EXPECT_EQ(layout.remap_base + layout.remap_sectors, layout.data_low);
    // The complex: the log, then the bands, inside the data area's bounds.
    EXPECT_LT(layout.data_low, layout.complex_begin());
    EXPECT_EQ(layout.complex_begin(), layout.log_base);
    EXPECT_LE(layout.log_base + c.config.log_sectors, layout.nt_base);
    EXPECT_EQ(layout.complex_end(), layout.nt_end);
    EXPECT_LT(layout.complex_end(), layout.data_high);
    EXPECT_EQ(layout.data_high, c.geometry.TotalSectors());
    // The log and the bands start on cylinder boundaries: no track of the
    // complex holds file data.
    EXPECT_EQ(c.geometry.ToChs(layout.log_base).head, 0u);
    EXPECT_EQ(c.geometry.ToChs(layout.log_base).sector, 0u);
    EXPECT_EQ(c.geometry.ToChs(layout.nt_base).head, 0u);
    EXPECT_EQ(c.geometry.ToChs(layout.nt_base).sector, 0u);
    // Page 0 sits on the cylinder after the log's last one.
    EXPECT_EQ(c.geometry.ToChs(layout.NtHome(FsdLayout::kPrimary, 0)).cylinder,
              c.geometry.ToChs(layout.log_base + c.config.log_sectors - 1)
                      .cylinder +
                  1);
  }
}

TEST(LayoutTest, EveryAlignedClusterIsContiguousInEachCopy) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const FsdLayout layout = FsdLayout::Compute(c.geometry, c.config);
    const std::uint32_t cluster = c.config.durability.nt_read_ahead_pages;
    for (std::uint32_t first = 0; first < c.config.nt_pages;
         first += cluster) {
      for (const int copy : {FsdLayout::kPrimary, FsdLayout::kReplica}) {
        const sim::Lba start = layout.NtHome(copy, first);
        for (std::uint32_t i = 1;
             i < cluster && first + i < c.config.nt_pages; ++i) {
          ASSERT_EQ(layout.NtHome(copy, first + i), start + i)
              << "cluster " << first << " copy " << copy;
        }
      }
    }
  }
}

TEST(LayoutTest, NtHomeAndItsInverseRoundTrip) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const FsdLayout layout = FsdLayout::Compute(c.geometry, c.config);
    for (std::uint32_t pid = 0; pid < c.config.nt_pages; ++pid) {
      for (const int copy : {FsdLayout::kPrimary, FsdLayout::kReplica}) {
        const auto ref = layout.NtCopyAt(layout.NtHome(copy, pid));
        ASSERT_TRUE(ref.has_value()) << "page " << pid;
        ASSERT_EQ(ref->pid, pid);
        ASSERT_EQ(ref->replica, copy == FsdLayout::kReplica);
      }
    }
    // Every sector the inverse claims is the home it names, and it claims
    // exactly the 2 x nt_pages homes; nothing outside the bands is one.
    std::uint64_t homes = 0;
    for (sim::Lba lba = layout.complex_begin() - 1;
         lba <= layout.complex_end(); ++lba) {
      const auto ref = layout.NtCopyAt(lba);
      if (!ref.has_value()) {
        continue;
      }
      ++homes;
      ASSERT_EQ(layout.NtHome(ref->replica ? FsdLayout::kReplica
                                           : FsdLayout::kPrimary,
                              ref->pid),
                lba);
    }
    EXPECT_EQ(homes, 2u * c.config.nt_pages);
    EXPECT_FALSE(layout.NtCopyAt(layout.data_low).has_value());
    EXPECT_FALSE(layout.NtCopyAt(layout.log_base).has_value());
  }
}

TEST(LayoutTest, ValidateRejectsABandWithoutAClusterOrUnderATrack) {
  // One track of 28 per cylinder: half a cylinder holds one 8-page
  // cluster, so the copies would be 8 sectors apart, on the same track.
  const sim::DiskGeometry one_track{
      .cylinders = 400, .heads = 1, .sectors_per_track = 28};
  EXPECT_EQ(FsdConfig{}.Validate(one_track).code(),
            ErrorCode::kInvalidArgument);
  // A 12-sector cylinder: half of it cannot hold an 8-page cluster.
  const sim::DiskGeometry tiny{
      .cylinders = 2000, .heads = 2, .sectors_per_track = 6};
  EXPECT_EQ(FsdConfig{}.Validate(tiny).code(), ErrorCode::kInvalidArgument);
  // A cluster larger than half of TestGeometry's 224-sector cylinder.
  FsdConfig big_cluster = Sized(400, 256);
  big_cluster.durability.nt_read_ahead_pages = 128;
  EXPECT_EQ(big_cluster.Validate(sim::TestGeometry()).code(),
            ErrorCode::kInvalidArgument);
  // The geometry-free rules still apply, and a fitting pair passes.
  FsdConfig no_pages = Sized(400, 0);
  EXPECT_EQ(no_pages.Validate(sim::TestGeometry()).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(Sized(400, 256).Validate(sim::TestGeometry()).ok());
  big_cluster.durability.nt_read_ahead_pages = 112;
  EXPECT_TRUE(big_cluster.Validate(sim::TestGeometry()).ok());
}

}  // namespace
}  // namespace cedar::core
