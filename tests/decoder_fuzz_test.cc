// Seeded mutation fuzzing of on-disk and file decoders, on the in-repo Rng
// (no external fuzzer). Each on-disk mutation keeps the bytes' checksum
// valid, so it reaches the parser's semantic checks instead of bouncing off
// the CRC; the file formats carry no checksum. The JSON reader behind the
// perf gate's BENCH files is fuzzed the same way.
// Runs under the "fuzz" ctest label (included by the asan preset) and in
// plain tier-1 ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/core/layout.h"
#include "src/core/name_table.h"
#include "src/core/nt_store.h"
#include "src/core/recovery.h"
#include "src/core/vam.h"
#include "src/crash/workload.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/util/crc32.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "src/util/serial.h"
#include "src/workload/trace.h"

namespace cedar::core {
namespace {

void PutU32(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Rewrites the CRC after the body the (possibly mutated) count describes;
// a count too large for the sector is left for the parser to refuse.
void Reseal(std::vector<std::uint8_t>& dir) {
  ByteReader r(dir);
  r.U32();
  const std::size_t body = 8 + 8 * static_cast<std::size_t>(r.U32());
  if (body + 4 <= dir.size()) {
    PutU32(dir, body,
           Crc32(std::span<const std::uint8_t>(dir).subspan(0, body)));
  }
}

// A remap directory whose CRC checks out must still map only name-table
// homes, each to its own spare: anything else would send name-table reads
// and writes to an arbitrary sector.
TEST(RemapDirectoryFuzzTest, AcceptedDirectoriesMapHomesToDistinctSpares) {
  constexpr int kMutations = 100000;
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  const FsdLayout layout = FsdLayout::Compute(sim::TestGeometry(), config);
  const sim::Lba spare_low = layout.remap_base + FsdLayout::kRemapDirCopies;
  const sim::Lba spare_end = layout.remap_base + layout.remap_sectors;
  const std::map<sim::Lba, sim::Lba> table = {
      {layout.NtHome(FsdLayout::kReplica, 7), spare_low + 1},
      {layout.NtHome(FsdLayout::kPrimary, 3), spare_low},
      {layout.NtHome(FsdLayout::kPrimary, 63), spare_end - 1}};
  const std::vector<std::uint8_t> valid =
      NtStore::EncodeRemapDirectory(table);
  {
    auto decoded = NtStore::DecodeRemapDirectory(valid, layout);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(*decoded, table);
  }
  auto is_home = [&](sim::Lba lba) {
    return layout.NtCopyAt(lba).has_value();
  };
  const sim::Lba last_primary =
      layout.NtHome(FsdLayout::kPrimary, config.nt_pages - 1);
  const sim::Lba first_replica = layout.NtHome(FsdLayout::kReplica, 0);
  // Values near every boundary the decoder must enforce, plus noise.
  const std::vector<sim::Lba> edges = {
      0,
      layout.remap_base,
      spare_low - 1,
      spare_low,
      spare_end - 1,
      spare_end,
      layout.nt_base - 1,
      layout.nt_base,
      last_primary,
      last_primary + 1,
      first_replica - 1,
      first_replica,
      layout.nt_end - 1,
      layout.nt_end,
      0xFFFFFFFFu};
  enum Class {
    kBitFlips,
    kField,
    kEdge,
    kCopyField,
    kCount,
    kBytes,
    kClasses
  };
  Rng rng(0xD1EC7u);
  int outcomes[2][kClasses] = {};
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> dir = valid;
    // Entry i's field f (0 = home, 1 = spare) sits at 8 + 8i + 4f.
    auto field_at = [&] {
      return 8 + 8 * rng.Below(table.size()) + 4 * rng.Below(2);
    };
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          dir[rng.Below(dir.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kField:
        PutU32(dir, field_at(), static_cast<std::uint32_t>(rng.Next()));
        break;
      case kEdge:
        PutU32(dir, field_at(),
               static_cast<std::uint32_t>(edges[rng.Below(edges.size())]));
        break;
      case kCopyField: {  // duplicate one entry's home or spare into another
        const std::size_t from = field_at();
        const std::size_t to = 8 + 8 * rng.Below(table.size()) + from % 8;
        std::copy_n(dir.begin() + from, 4, dir.begin() + to);
        break;
      }
      case kCount:
        PutU32(dir, 4, static_cast<std::uint32_t>(rng.Below(70)));
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 16); n > 0; --n) {
          dir[rng.Below(64)] = static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kClasses:
        break;
    }
    Reseal(dir);
    auto decoded = NtStore::DecodeRemapDirectory(dir, layout);
    ++outcomes[decoded.ok() ? 1 : 0][cls];
    if (!decoded.ok()) {
      const ErrorCode code = decoded.status().code();
      ASSERT_TRUE(code == ErrorCode::kCorruptMetadata ||
                  code == ErrorCode::kNotFound)
          << "mutation " << m;
      continue;
    }
    std::vector<bool> spare_taken(layout.remap_sectors, false);
    for (const auto& [home, spare] : *decoded) {
      ASSERT_TRUE(is_home(home)) << "mutation " << m << " home " << home;
      ASSERT_TRUE(spare >= spare_low && spare < spare_end)
          << "mutation " << m << " spare " << spare;
      ASSERT_FALSE(spare_taken[spare - layout.remap_base])
          << "mutation " << m << " shares spare " << spare;
      spare_taken[spare - layout.remap_base] = true;
    }
  }
  // Every class reaches a rejection, and enough mutations stay well-formed
  // (padding flips, shorter counts, in-range edges) that the accepting path
  // is checked too.
  int accepted = 0;
  for (int c = 0; c < kClasses; ++c) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
    accepted += outcomes[1][c];
  }
  EXPECT_GT(accepted, kMutations / 10);
}

// Rewrites the CRC after a body of `body` bytes, when it fits the sector.
void ResealAt(std::vector<std::uint8_t>& sector, std::size_t body) {
  if (body + 4 <= sector.size()) {
    PutU32(sector, body,
           Crc32(std::span<const std::uint8_t>(sector).subspan(0, body)));
  }
}

// A root whose CRC checks out must still be exactly what Encode writes for
// this disk, and Mount's election must accept only a root describing the
// configured volume: any other log size, name-table size or band would
// leave the config and the layout describing different volumes.
TEST(VolumeRootFuzzTest, AcceptedRootsDescribeTheConfiguredVolume) {
  constexpr int kMutations = 100000;
  constexpr std::size_t kBody = 37;  // nine u32 fields and the clean flag
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const FsdLayout layout = FsdLayout::Compute(disk.geometry(), config);
  obs::MetricsRegistry metrics;
  MediaHealth health(&disk, &metrics);
  NtStore nt(&disk, layout, config, &metrics, &health);
  FsdLog log(&disk, layout.log_base, config.log_sectors, &metrics);
  Recovery recovery(&disk, layout, config, &log, &nt, &health, &metrics);
  const std::vector<std::uint8_t> valid = VolumeRoot::Encode(
      VolumeRoot{.log_sectors = config.log_sectors,
                 .nt_pages = config.nt_pages,
                 .nt_band = layout.nt_band,
                 .boot_count = 9,
                 .nt_seq = 500,
                 .clean = true},
      disk.geometry());
  const std::vector<std::uint32_t> edges = {
      0, 1, 63, 64, 65, 111, 112, 113, 399, 400, 401, 0x7FFFFFFFu,
      0xFFFFFFFFu};
  enum Class { kBitFlips, kField, kEdge, kCleanByte, kBytes, kClasses };
  Rng rng(0x5007u);
  int outcomes[2][kClasses] = {};
  std::vector<std::uint8_t> pair(3 * 512, 0);
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> root = valid;
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          root[rng.Below(kBody + 4)] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kField:
        PutU32(root, 4 * rng.Below(9), static_cast<std::uint32_t>(rng.Next()));
        break;
      case kEdge:  // the three sizes, and the geometry before them
        PutU32(root, 4 * rng.Between(3, 6), edges[rng.Below(edges.size())]);
        break;
      case kCleanByte:
        root[36] = static_cast<std::uint8_t>(rng.Below(4));
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 8); n > 0; --n) {
          root[rng.Below(kBody)] = static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kClasses:
        break;
    }
    ResealAt(root, kBody);
    auto decoded = VolumeRoot::Decode(root, disk.geometry());
    if (decoded.ok()) {
      const std::vector<std::uint8_t> again =
          VolumeRoot::Encode(*decoded, disk.geometry());
      ASSERT_TRUE(std::equal(again.begin(), again.begin() + kBody + 4,
                             root.begin()))
          << "mutation " << m << " decoded to a different root";
    } else {
      ASSERT_EQ(decoded.status().code(), ErrorCode::kCorruptMetadata)
          << "mutation " << m;
    }
    std::copy(root.begin(), root.end(), pair.begin());
    std::copy(root.begin(), root.end(), pair.begin() + 2 * 512);
    ASSERT_TRUE(disk.Write(layout.root_lba, pair).ok());
    auto elected = recovery.ReadRoot();
    ++outcomes[elected.ok() ? 1 : 0][cls];
    if (!elected.ok()) {
      const ErrorCode code = elected.status().code();
      ASSERT_TRUE(code == ErrorCode::kCorruptMetadata ||
                  code == ErrorCode::kInvalidArgument)
          << "mutation " << m;
      continue;
    }
    ASSERT_EQ(elected->log_sectors, config.log_sectors) << "mutation " << m;
    ASSERT_EQ(elected->nt_pages, config.nt_pages) << "mutation " << m;
    ASSERT_EQ(elected->nt_band, layout.nt_band) << "mutation " << m;
  }
  int accepted = 0;
  for (int c = 0; c < kClasses; ++c) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
    accepted += outcomes[1][c];
  }
  EXPECT_GT(accepted, kMutations / 10);
}

// A leader sector whose CRC checks out must be exactly the sector
// SerializeLeader writes for what ParseLeader read: same fields, same
// preamble, zero padding after the CRC. Mutations hit the header fields,
// the preamble count (edges around the 4 runs MakeLeader writes and the
// ~60 that fit), the runs, and the padding; each is resealed over the body
// the mutated count describes.
TEST(LeaderFuzzTest, AcceptedLeadersReserializeToTheSameBytes) {
  constexpr int kMutations = 100000;
  // magic, u64 uid, u32 version, u32 run crc, u16 count, then 8-byte runs.
  constexpr std::size_t kRuns = 22;
  auto body_of = [](std::uint32_t runs) { return 22 + 8 * std::size_t{runs}; };
  FsdEntry entry;
  entry.uid = 0x1234567890ull;
  entry.runs = {{.start = 9000, .count = 3},
                {.start = 12000, .count = 40},
                {.start = 31, .count = 1},
                {.start = 77777, .count = 500},
                {.start = 5, .count = 2}};
  const std::vector<std::uint8_t> valid =
      SerializeLeader(MakeLeader(entry, 7));
  {
    LeaderPage parsed;
    ASSERT_TRUE(ParseLeader(valid, &parsed).ok());
    ASSERT_EQ(parsed.preamble.size(), 4u);
    ASSERT_TRUE(VerifyLeader(valid, entry, 7).ok());
  }
  const std::vector<std::uint16_t> counts = {0, 1, 3, 4, 5, 60, 61, 62,
                                             0xFFFF};
  enum Class { kBitFlips, kField, kCount, kRun, kPadding, kBytes, kClasses };
  Rng rng(0x1EADu);
  int outcomes[2][kClasses] = {};
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> sector = valid;
    std::uint32_t runs = 4;
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          sector[rng.Below(body_of(runs))] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kField:  // uid halves, version or run crc
        PutU32(sector, 4 + 4 * rng.Below(4),
               static_cast<std::uint32_t>(rng.Next()));
        break;
      case kCount:
        runs = counts[rng.Below(counts.size())];
        sector[20] = static_cast<std::uint8_t>(runs);
        sector[21] = static_cast<std::uint8_t>(runs >> 8);
        break;
      case kRun:
        PutU32(sector, kRuns + 4 * rng.Below(8),
               static_cast<std::uint32_t>(rng.Next()));
        break;
      case kPadding:
        sector[body_of(runs) + 4 + rng.Below(512 - body_of(runs) - 4)] =
            static_cast<std::uint8_t>(rng.Between(1, 255));
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 8); n > 0; --n) {
          sector[rng.Below(sector.size())] =
              static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kClasses:
        break;
    }
    ResealAt(sector, body_of(runs));
    LeaderPage parsed;
    const Status status = ParseLeader(sector, &parsed);
    ++outcomes[status.ok() ? 1 : 0][cls];
    if (!status.ok()) {
      ASSERT_EQ(status.code(), ErrorCode::kCorruptMetadata)
          << "mutation " << m;
      continue;
    }
    ASSERT_EQ(SerializeLeader(parsed), sector)
        << "mutation " << m << " (class " << cls
        << ") was accepted but does not re-serialize to its bytes";
  }
  // The header fields and the runs carry no rule of their own (VerifyLeader
  // checks them against the entry), so those classes are always accepted;
  // every other class reaches a rejection. Nonzero padding is always
  // rejected; every other class is accepted sometimes.
  for (const Class c : {kBitFlips, kCount, kPadding, kBytes}) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
  }
  EXPECT_EQ(outcomes[1][kPadding], 0);
  for (const Class c : {kBitFlips, kField, kCount, kRun, kBytes}) {
    EXPECT_GT(outcomes[1][c], 0) << "class " << c << " never accepted";
  }
}

// Regression: ParseLeader checked the CRC over the body it consumed and
// ignored the rest of the sector, so a leader with garbage after its CRC
// (a wild write past a short leader, say) was accepted although
// SerializeLeader could never have written it.
TEST(LeaderFuzzTest, NonzeroPaddingAfterTheCrcIsRejected) {
  FsdEntry entry;
  entry.uid = 42;
  entry.runs = {{.start = 100, .count = 2}};
  std::vector<std::uint8_t> sector = SerializeLeader(MakeLeader(entry, 1));
  LeaderPage parsed;
  ASSERT_TRUE(ParseLeader(sector, &parsed).ok());
  sector[511] = 0x5A;
  EXPECT_EQ(ParseLeader(sector, &parsed).code(), ErrorCode::kCorruptMetadata);
}

// The name-table sector trailer and the vote between a page's two copies,
// against a model of the rule: a copy is ok when readable (and, for the
// replica, read) with a CRC over its first 508 bytes; the winner is the ok
// copy with the higher sequence, the primary on a tie; diverged says the
// replica was read and the copies differ or one is not ok; corruption is
// counted when a readable copy fails its CRC while the other is ok.
TEST(NtTrailerFuzzTest, ParseAndVoteFollowTheRule) {
  constexpr int kMutations = 100000;
  constexpr std::size_t kSeq = 504;
  constexpr std::size_t kCrc = 508;
  obs::MetricsRegistry metrics;
  obs::Counter* corruption = metrics.GetCounter("fuzz.corruption");
  auto sealed = [](std::uint8_t fill, std::uint32_t seq) {
    std::vector<std::uint8_t> sector(512, fill);
    PutU32(sector, kSeq, seq);
    ResealAt(sector, kCrc);
    return sector;
  };
  // The oracle: the CRC and the sequence straight from the bytes.
  auto model_parse = [](const std::vector<std::uint8_t>& sector,
                        std::uint32_t* seq) {
    ByteReader r(std::span<const std::uint8_t>(sector).subspan(kSeq, 8));
    *seq = r.U32();
    return r.U32() ==
           Crc32(std::span<const std::uint8_t>(sector).subspan(0, kCrc));
  };
  const std::vector<std::uint32_t> seqs = {0, 1, 2, 0x7FFFFFFFu,
                                           0x80000000u, 0xFFFFFFFFu};
  enum Class { kBitFlips, kSeqResealed, kSeqRaw, kCrcField, kBytes, kClasses };
  auto mutate = [&](Rng& rng, std::vector<std::uint8_t>& sector) {
    switch (static_cast<Class>(rng.Below(kClasses))) {
      case kBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          sector[rng.Below(sector.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kSeqResealed:
        PutU32(sector, kSeq, seqs[rng.Below(seqs.size())]);
        ResealAt(sector, kCrc);
        break;
      case kSeqRaw:
        PutU32(sector, kSeq, static_cast<std::uint32_t>(rng.Next()));
        break;
      case kCrcField:
        PutU32(sector, kCrc, static_cast<std::uint32_t>(rng.Next()));
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 8); n > 0; --n) {
          sector[rng.Below(kCrc)] = static_cast<std::uint8_t>(rng.Next());
        }
        ResealAt(sector, kCrc);
        break;
      case kClasses:
        break;
    }
  };
  Rng rng(0x7A11u);
  int votes[3] = {};  // none ok, primary wins, replica wins
  for (int m = 0; m < kMutations; ++m) {
    const std::uint32_t seq = static_cast<std::uint32_t>(rng.Below(1000));
    std::vector<std::uint8_t> a = sealed(0x3C, seq);
    // The replica: the same sector, an older or newer one, or another page.
    std::vector<std::uint8_t> b =
        rng.Below(2) == 0 ? a
                          : sealed(static_cast<std::uint8_t>(rng.Below(3)),
                                   seq + static_cast<std::uint32_t>(
                                             rng.Below(3)) - 1);
    for (std::vector<std::uint8_t>* sector : {&a, &b}) {
      if (rng.Below(3) != 0) {
        mutate(rng, *sector);
      }
    }
    std::uint32_t seq_a = 0;
    std::uint32_t seq_b = 0;
    const bool crc_a = model_parse(a, &seq_a);
    const bool crc_b = model_parse(b, &seq_b);
    std::uint32_t parsed = 0;
    ASSERT_EQ(NtStore::ParseTrailer(a, &parsed), crc_a) << "mutation " << m;
    if (crc_a) {
      ASSERT_EQ(parsed, seq_a) << "mutation " << m;
    }
    ASSERT_EQ(NtStore::ParseTrailer(b, nullptr), crc_b) << "mutation " << m;

    const bool readable_a = rng.Below(8) != 0;
    const bool readable_b = rng.Below(8) != 0;
    const bool read_b = rng.Below(4) != 0;
    const std::uint64_t before = corruption->value();
    const NtStore::Vote vote =
        NtStore::VoteCopies(a, readable_a, b, readable_b, read_b, corruption);
    const bool ok_a = readable_a && crc_a;
    const bool ok_b = readable_b && read_b && crc_b;
    ASSERT_EQ(vote.ok_a, ok_a) << "mutation " << m;
    ASSERT_EQ(vote.ok_b, ok_b) << "mutation " << m;
    if (!ok_a && !ok_b) {
      ASSERT_EQ(corruption->value(), before) << "mutation " << m;
      ++votes[0];
      continue;
    }
    ASSERT_EQ(vote.b_wins, ok_b && (!ok_a || seq_b > seq_a))
        << "mutation " << m;
    ASSERT_EQ(vote.seq, std::max(ok_a ? seq_a : 0u, ok_b ? seq_b : 0u))
        << "mutation " << m;
    ASSERT_EQ(vote.diverged, read_b && (!ok_a || !ok_b || a != b))
        << "mutation " << m;
    const bool caught =
        (readable_a && !ok_a) || (readable_b && read_b && !ok_b);
    ASSERT_EQ(corruption->value() - before, caught ? 1u : 0u)
        << "mutation " << m;
    ++votes[vote.b_wins ? 2 : 1];
  }
  for (const int count : votes) {
    EXPECT_GT(count, kMutations / 50);
  }
}

// A delta page whose CRC checks out must still name only sectors and
// name-table pages the volume has: Vam::Apply on anything else would run
// off the end of its bitmaps.
TEST(VamDeltaFuzzTest, AcceptedDeltasFitTheVolume) {
  constexpr int kMutations = 100000;
  constexpr std::uint32_t kSectors = 5000;
  constexpr std::uint32_t kNtPages = 64;
  const std::vector<VamDelta> deltas = {
      {.op = VamDelta::Op::kAlloc, .start = 100, .count = 8},
      {.op = VamDelta::Op::kFree, .start = kSectors - 4, .count = 4},
      {.op = VamDelta::Op::kNtAlloc, .start = kNtPages - 1, .count = 1},
      {.op = VamDelta::Op::kNtFree, .start = 0, .count = 2},
      {.op = VamDelta::Op::kAlloc, .start = 0, .count = 1}};
  const std::vector<std::uint8_t> valid = SerializeDeltas(deltas)[0];
  {
    std::vector<VamDelta> parsed;
    ASSERT_TRUE(ParseDeltas(valid, kSectors, kNtPages, &parsed).ok());
    ASSERT_EQ(parsed.size(), deltas.size());
  }
  const std::vector<std::uint32_t> edges = {
      0, 1, kNtPages - 1, kNtPages, kNtPages + 1, kSectors - 1, kSectors,
      kSectors + 1, 0x7FFFFFFFu, 0xFFFFFFFFu};
  enum Class { kBitFlips, kField, kEdge, kOp, kCount, kBytes, kClasses };
  Rng rng(0xDE17Au);
  int outcomes[2][kClasses] = {};
  Vam vam(kSectors, kNtPages);
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> page = valid;
    // Delta i's op sits at 2 + 9i, its start at 3 + 9i, its count at 7 + 9i.
    auto field_at = [&] {
      return 2 + 9 * rng.Below(deltas.size()) + 1 + 4 * rng.Below(2);
    };
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          page[rng.Below(2 + 9 * deltas.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kField:
        PutU32(page, field_at(), static_cast<std::uint32_t>(rng.Next()));
        break;
      case kEdge:
        PutU32(page, field_at(), edges[rng.Below(edges.size())]);
        break;
      case kOp:
        page[2 + 9 * rng.Below(deltas.size())] =
            static_cast<std::uint8_t>(rng.Below(6));
        break;
      case kCount:
        page[0] = static_cast<std::uint8_t>(rng.Below(60));
        page[1] = 0;
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 16); n > 0; --n) {
          page[rng.Below(64)] = static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kClasses:
        break;
    }
    ResealAt(page, 2 + 9 * std::size_t{ByteReader(page).U16()});
    std::vector<VamDelta> parsed;
    const Status status = ParseDeltas(page, kSectors, kNtPages, &parsed);
    ++outcomes[status.ok() ? 1 : 0][cls];
    if (!status.ok()) {
      ASSERT_EQ(status.code(), ErrorCode::kCorruptMetadata) << "mutation " << m;
      continue;
    }
    for (const VamDelta& delta : parsed) {
      const bool nt = delta.op == VamDelta::Op::kNtAlloc ||
                      delta.op == VamDelta::Op::kNtFree;
      ASSERT_LE(std::uint64_t{delta.start} + delta.count,
                nt ? kNtPages : kSectors)
          << "mutation " << m;
      vam.Apply(delta);
    }
  }
  int accepted = 0;
  for (int c = 0; c < kClasses; ++c) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
    accepted += outcomes[1][c];
  }
  EXPECT_GT(accepted, kMutations / 10);
}

// ---- Interior pages: BTree::ChildrenOf and the mount sweep's walk.

// A three-level tree of `kTablePages` or fewer pages, built through the
// B-tree itself: long keys keep the fan-out small, so there are interior
// pages besides the root.
constexpr std::uint32_t kTablePages = 64;

std::map<btree::PageId, std::vector<std::uint8_t>> BuildTree() {
  btree::MemPageStore store(NtStore::kPayload);
  btree::BTree tree(&store, 0);
  CEDAR_CHECK_OK(tree.Create());
  for (int i = 0; i < 100; ++i) {
    const std::string key =
        "fuzz/" + std::string(50, 'k') + std::to_string(1000 + i);
    const std::vector<std::uint8_t> value(10, static_cast<std::uint8_t>(i));
    CEDAR_CHECK_OK(tree.Insert(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
        value));
  }
  std::vector<btree::PageId> live;
  CEDAR_CHECK_OK(tree.CollectPages(&live));
  std::map<btree::PageId, std::vector<std::uint8_t>> pages;
  for (const btree::PageId id : live) {
    CEDAR_CHECK(id < kTablePages);
    pages[id].resize(NtStore::kPayload);
    CEDAR_CHECK_OK(store.ReadPage(id, pages[id]));
  }
  return pages;
}

// Seeded mutations of interior pages (the layout btree.cc writes: u8 type,
// u8 pad, u16 count, u16 cell_start, u32 leftmost child, u16 slots; a cell
// is u16 key_len, the key, u32 child): out-of-range, self and cross
// references, slots and key lengths past the page, truncation. ChildrenOf
// must never yield a page at or past the limit, nor read past the page (a
// truncated page is an exactly-sized buffer, so asan sees an overread);
// every 10th mutated page is also written home and swept, and the sweep
// must read nothing but name-table homes.
TEST(InteriorPageFuzzTest, ChildrenStayInRangeAndTheSweepInTheRegions) {
  constexpr int kMutations = 100000;
  constexpr int kSweepEvery = 10;
  const std::map<btree::PageId, std::vector<std::uint8_t>> tree = BuildTree();
  std::vector<btree::PageId> interior;
  for (const auto& [id, page] : tree) {
    if (btree::BTree::IsInteriorPage(page)) {
      interior.push_back(id);
    }
  }
  ASSERT_GE(interior.size(), 3u) << "the root and at least two below it";
  // An untouched interior page yields exactly its children, all in range.
  std::uint32_t reachable = 1;
  for (const btree::PageId id : interior) {
    const auto children = btree::BTree::ChildrenOf(tree.at(id), kTablePages);
    ASSERT_FALSE(children.empty());
    reachable += static_cast<std::uint32_t>(children.size());
    for (const btree::PageId child : children) {
      ASSERT_TRUE(tree.contains(child)) << "page " << id;
    }
  }
  ASSERT_EQ(reachable, tree.size());

  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = kTablePages;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  obs::DiskTracer tracer(1024);
  disk.set_tracer(&tracer);
  const FsdLayout layout = FsdLayout::Compute(disk.geometry(), config);
  obs::MetricsRegistry metrics;
  MediaHealth health(&disk, &metrics);
  NtStore nt(&disk, layout, config, &metrics, &health);
  ASSERT_TRUE(nt.Format().ok());
  auto write_home = [&](btree::PageId id,
                        std::span<const std::uint8_t> payload) {
    const std::vector<std::uint8_t> image = nt.Compose(payload);
    const NtStore::Homes homes = nt.HomesOf(id);
    const NtStore::HomeWrite page{
        .primary = homes.primary, .replica = homes.replica, .image = image};
    CEDAR_CHECK_OK(nt.WriteHomes({&page, 1}));
  };
  for (const auto& [id, page] : tree) {
    write_home(id, page);
  }
  auto in_regions = [&](const obs::TraceEvent& ev) {
    for (sim::Lba lba = ev.lba; lba < ev.lba + ev.sectors; ++lba) {
      if (!layout.NtCopyAt(lba).has_value()) {
        return false;
      }
    }
    return true;
  };

  enum Class {
    kChildRandom,   // a child pointer set to any u32
    kChildEdge,     // ... to the limit's edges, itself, or another page
    kSlotOffset,    // a slot pointing anywhere, past the page included
    kKeyLength,     // a cell's key running past the page
    kCount,         // more (or fewer) slots than the page holds
    kCellStart,     // the cell area's start anywhere
    kTruncate,      // the page cut short
    kBytes,         // random bytes in the header and slots
    kClasses
  };
  Rng rng(0xC41D5u);
  int nonempty[kClasses] = {};
  int sweeps = 0;
  for (int m = 0; m < kMutations; ++m) {
    const btree::PageId id = interior[rng.Below(interior.size())];
    std::vector<std::uint8_t> page = tree.at(id);
    const std::uint32_t count = page[2] | (page[3] << 8);
    // The offset of child field i (0 = leftmost, i > 0 = cell i - 1's).
    auto child_at = [&](std::uint32_t i) -> std::size_t {
      if (i == 0) {
        return 6;
      }
      const std::size_t off = page[10 + 2 * (i - 1)] |
                              (page[11 + 2 * (i - 1)] << 8);
      return off + 2 + (page[off] | (page[off + 1] << 8));
    };
    auto put16 = [&](std::size_t at, std::uint32_t v) {
      page[at] = static_cast<std::uint8_t>(v);
      page[at + 1] = static_cast<std::uint8_t>(v >> 8);
    };
    auto put32 = [&](std::size_t at, std::uint32_t v) {
      put16(at, v & 0xFFFF);
      put16(at + 2, v >> 16);
    };
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kChildRandom:
        put32(child_at(rng.Below(count + 1)),
              static_cast<std::uint32_t>(rng.Next()));
        break;
      case kChildEdge: {
        const std::uint32_t edges[] = {
            kTablePages - 1, kTablePages, kTablePages + 1, btree::kInvalidPage,
            0, id, interior[rng.Below(interior.size())]};
        put32(child_at(rng.Below(count + 1)), edges[rng.Below(7)]);
        break;
      }
      case kSlotOffset:
        put16(10 + 2 * rng.Below(count), rng.Below(0x10000));
        break;
      case kKeyLength: {
        const std::size_t slot = 10 + 2 * rng.Below(count);
        put16(page[slot] | (page[slot + 1] << 8), rng.Below(0x10000));
        break;
      }
      case kCount:
        put16(2, rng.Below(300));
        break;
      case kCellStart:
        put16(4, rng.Below(0x10000));
        break;
      case kTruncate:
        page.resize(rng.Below(page.size()));
        page.shrink_to_fit();
        break;
      case kBytes:
        for (std::uint64_t n = rng.Between(1, 8); n > 0; --n) {
          page[rng.Below(10 + 2 * count)] =
              static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kClasses:
        break;
    }
    const std::vector<btree::PageId> children =
        btree::BTree::ChildrenOf(page, kTablePages);
    for (const btree::PageId child : children) {
      ASSERT_LT(child, kTablePages) << "mutation " << m;
    }
    nonempty[cls] += children.empty() ? 0 : 1;
    if (m % kSweepEvery != 0) {
      continue;
    }
    page.resize(NtStore::kPayload, 0);
    write_home(id, page);
    tracer.Reset();
    NtImages images;
    ASSERT_TRUE(nt.Sweep(0, &images).ok()) << "mutation " << m;
    ASSERT_LE(images.sectors_read, 2u * kTablePages) << "mutation " << m;
    for (const obs::TraceEvent& ev : tracer.Events()) {
      ASSERT_TRUE(in_regions(ev))
          << "mutation " << m << " read lba " << ev.lba << "+" << ev.sectors;
    }
    ++sweeps;
    write_home(id, tree.at(id));
  }
  EXPECT_EQ(sweeps, kMutations / kSweepEvery);
  // Pointer mutations still parse; every class that can break the layout
  // keeps some pages parsing too (a slot or length that stays in bounds),
  // except truncation: cells fill from the page's end, so a cut page
  // always loses one.
  for (int c = 0; c < kClasses; ++c) {
    if (c == kTruncate) {
      EXPECT_EQ(nonempty[c], 0);
    } else {
      EXPECT_GT(nonempty[c], 0) << "class " << c << " never parsed";
    }
  }
}

// A log region FsdLog wrote, mutated: the pointer copies, header and end
// pairs, the skip marker and the data, each header, end, marker and pointer
// resealed after its mutation. Recovery::CollectReplay runs FsdLog::Recover
// over every mutation; it must not crash, may refuse only with
// kCorruptMetadata, and a replay it accepts may hold only what the force
// path logs: a name-table page at its own two copies, or one file-data
// sector with no replica.
TEST(LogRecordFuzzTest, AcceptedReplaysNameOnlyLoggableHomes) {
  constexpr int kMutations = 100000;
  constexpr std::uint32_t kPointerBody = 20;  // magic, offset, lsn, boot
  constexpr std::uint32_t kStampBody = 16;    // magic, lsn, boot
  constexpr std::uint32_t kHeaderMagic = 0x4C4F4748;
  constexpr std::uint32_t kEndMagic = 0x4C4F4745;
  constexpr std::uint32_t kMarkerMagic = 0x4C4F474D;
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const FsdLayout layout = FsdLayout::Compute(disk.geometry(), config);
  obs::MetricsRegistry metrics;
  MediaHealth health(&disk, &metrics);
  NtStore nt(&disk, layout, config, &metrics, &health);
  ASSERT_TRUE(nt.Format().ok());
  FsdLog log(&disk, layout.log_base, config.log_sectors, &metrics);
  Recovery recovery(&disk, layout, config, &log, &nt, &health, &metrics);

  // Twelve groups of 1-6 pages of every kind; the twelfth does not fit in
  // the first third, so a skip marker precedes it.
  ASSERT_TRUE(log.Format(1).ok());
  const sim::Lba leader = layout.data_low + 10;
  for (std::uint32_t g = 0; g < 12; ++g) {
    std::vector<PageImage> pages;
    for (std::uint32_t i = 0; i <= g % 6; ++i) {
      PageImage page;
      page.data.assign(512, static_cast<std::uint8_t>(g * 7 + i));
      switch ((g + i) % 4) {
        case 0:
        case 1: {
          const std::uint32_t pid = (g * 5 + i) % config.nt_pages;
          page.primary = layout.NtHome(FsdLayout::kPrimary, pid);
          page.secondary = layout.NtHome(FsdLayout::kReplica, pid);
          break;
        }
        case 2:
          page.primary = leader + i;
          page.kind = g % 2 == 0 ? PageKind::kPage : PageKind::kTombstone;
          break;
        default: {
          const VamDelta delta{.start = static_cast<std::uint32_t>(leader),
                               .count = 1 + g};
          page.kind = PageKind::kVamDelta;
          page.data = SerializeDeltas({&delta, 1})[0];
          break;
        }
      }
      pages.push_back(std::move(page));
    }
    ASSERT_TRUE(
        log.AppendGroup(pages, [](std::uint64_t) { return OkStatus(); }).ok());
  }
  std::vector<std::uint8_t> valid(std::size_t{config.log_sectors} * 512);
  ASSERT_TRUE(disk.Read(layout.log_base, valid).ok());
  // Every sector by role, found by magic (area sector i is log sector 4+i).
  auto magic_at = [&](std::uint32_t s) {
    ByteReader r(std::span<const std::uint8_t>(valid).subspan(s * 512, 4));
    return r.U32();
  };
  std::vector<std::uint32_t> headers, ends, markers, data;
  for (std::uint32_t s = 4; s < config.log_sectors; ++s) {
    const std::uint32_t magic = magic_at(s);
    if (magic == kHeaderMagic && magic_at(s - 2) != kHeaderMagic) {
      headers.push_back(s);
      const std::uint32_t n = valid[s * 512 + 16];
      for (std::uint32_t i = 0; i < 2 * n + 1; ++i) {
        if (i != n) {
          data.push_back(s + 3 + i);
        }
      }
    } else if (magic == kEndMagic) {
      ends.push_back(s);
    } else if (magic == kMarkerMagic) {
      markers.push_back(s);
    }
  }
  ASSERT_EQ(headers.size(), 12u);
  ASSERT_EQ(ends.size(), 24u);
  ASSERT_EQ(markers.size(), 1u);

  const sim::Lba spare = layout.remap_base + FsdLayout::kRemapDirCopies;
  const std::vector<sim::Lba> homes = {
      layout.root_lba,
      layout.root_lba + 2,
      layout.vam_base,
      layout.remap_base,
      spare,
      layout.log_base,
      layout.log_base + 2,
      layout.log_base + 200,
      layout.NtHome(FsdLayout::kPrimary, 0),
      layout.NtHome(FsdLayout::kReplica, 0),
      layout.NtHome(FsdLayout::kPrimary, 5),
      layout.NtHome(FsdLayout::kReplica, 63),
      layout.NtHome(FsdLayout::kPrimary, 63) + 1,
      layout.nt_end - 1,
      layout.nt_end,
      layout.data_low - 1,
      layout.data_low,
      layout.data_high - 1,
      layout.data_high,
      kNoLba};
  const std::vector<std::uint32_t> edges = {
      0, 1, 2, 11, 12, 13, 127, 131, 132, 395, 396, 0xFFFFFFFFu};

  enum Class {
    kPointer,     // a pointer copy's offset, lsn or boot
    kHeader,      // a header copy's lsn, boot, count, data CRC or flags
    kHome,        // a page's primary, secondary or kind in both copies
    kStamp,       // an end or the marker's lsn or boot
    kToMarker,    // a header turned into a marker of the same lsn
    kData,        // a page's bytes, the header's data CRC following
    kBitFlips,    // anywhere in the region, nothing resealed
    kClasses
  };
  Rng rng(0x106u);
  std::map<std::uint32_t, std::vector<std::uint8_t>> touched;
  auto sector = [&](std::uint32_t s) -> std::vector<std::uint8_t>& {
    auto [it, fresh] = touched.try_emplace(s);
    if (fresh) {
      it->second.assign(valid.begin() + s * 512,
                        valid.begin() + (s + 1) * 512);
    }
    return it->second;
  };
  auto pick = [&](const std::vector<std::uint32_t>& from) {
    return from[rng.Below(from.size())];
  };
  auto value = [&] {
    return rng.Chance(0.5) ? edges[rng.Below(edges.size())]
                           : static_cast<std::uint32_t>(rng.Next());
  };
  auto header_body = [](const std::vector<std::uint8_t>& h) {
    return std::min<std::size_t>(23 + 9 * (h[16] | h[17] << 8), 508);
  };
  int outcomes[2][kClasses] = {};
  int home_refusals = 0;
  for (int m = 0; m < kMutations; ++m) {
    touched.clear();
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kPointer: {  // copy 0, copy 2 or both
        const std::uint64_t copies = rng.Between(1, 3);
        const std::size_t field = 4 + 4 * rng.Below(4);
        const std::uint32_t to = value();
        for (const std::uint32_t copy : {0u, 2u}) {
          if ((copies >> (copy / 2) & 1) != 0) {
            PutU32(sector(copy), field, to);
            ResealAt(sector(copy), kPointerBody);
          }
        }
        break;
      }
      case kHeader: {
        auto& h = sector(pick(headers) + (rng.Chance(0.25) ? 2 : 0));
        switch (rng.Below(5)) {
          case 0:  // the lsn's low word
          case 1:  // the boot
            PutU32(h, 4 + 4 * rng.Below(3), value());
            break;
          case 2:
            h[16] = static_cast<std::uint8_t>(rng.Below(60));
            h[17] = static_cast<std::uint8_t>(rng.Chance(0.9) ? 0 : 1);
            break;
          case 3:
            PutU32(h, 18, value());
            break;
          default:
            h[22] = static_cast<std::uint8_t>(rng.Below(4));
            break;
        }
        ResealAt(h, header_body(h));
        break;
      }
      case kHome: {
        const std::uint32_t at = pick(headers);
        const std::uint32_t n = valid[at * 512 + 16];
        const std::size_t field = 23 + 9 * rng.Below(n) + 4 * rng.Below(3);
        for (const std::uint32_t copy : {at, at + 2}) {
          auto& h = sector(copy);
          if ((field - 23) % 9 == 8) {
            h[field] = static_cast<std::uint8_t>(rng.Below(4));
          } else {
            PutU32(h, field,
                   static_cast<std::uint32_t>(homes[rng.Below(homes.size())]));
          }
          ResealAt(h, header_body(h));
        }
        break;
      }
      case kStamp: {
        const bool marker = rng.Chance(0.3);
        auto& e = sector(marker ? markers[0] : pick(ends));
        PutU32(e, 4 + 4 * rng.Below(3), value());
        ResealAt(e, kStampBody);
        break;
      }
      case kToMarker: {
        auto& h = sector(pick(headers));
        PutU32(h, 0, kMarkerMagic);
        ResealAt(h, kStampBody);
        break;
      }
      case kData: {
        const std::uint32_t at = pick(headers);
        const std::uint32_t n = valid[at * 512 + 16];
        auto& d = sector(at + 3 + static_cast<std::uint32_t>(rng.Below(n)));
        for (std::uint64_t k = rng.Between(1, 8); k > 0; --k) {
          d[rng.Below(512)] = static_cast<std::uint8_t>(rng.Next());
        }
        if (rng.Chance(0.5)) {
          std::uint32_t crc = 0;
          for (std::uint32_t i = 0; i < n; ++i) {
            crc = Crc32(sector(at + 3 + i), crc);
          }
          for (const std::uint32_t copy : {at, at + 2}) {
            PutU32(sector(copy), 18, crc);
            ResealAt(sector(copy), header_body(sector(copy)));
          }
        }
        break;
      }
      case kBitFlips:
        for (std::uint64_t k = rng.Between(1, 4); k > 0; --k) {
          sector(pick(rng.Chance(0.5) ? headers : data))[rng.Below(512)] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kClasses:
        break;
    }
    for (const auto& [s, bytes] : touched) {
      ASSERT_TRUE(disk.Write(layout.log_base + s, bytes).ok());
    }

    Replay replay;
    const Status collected = recovery.CollectReplay(2, true, &replay);
    ++outcomes[collected.ok() ? 1 : 0][cls];
    if (!collected.ok()) {
      ASSERT_EQ(collected.code(), ErrorCode::kCorruptMetadata)
          << "mutation " << m << ": " << collected.message();
      home_refusals +=
          collected.message().find("names home") != std::string::npos;
    }
    for (const auto& [lba, page] : replay.pages) {
      if (page.secondary == kNoLba) {
        ASSERT_TRUE(lba >= layout.data_low && lba < layout.data_high &&
                    !layout.InMetadataComplex(lba))
            << "mutation " << m << " replays to lba " << lba;
        continue;
      }
      const auto primary = layout.NtCopyAt(lba);
      const auto replica = layout.NtCopyAt(page.secondary);
      ASSERT_TRUE(primary && replica && !primary->replica &&
                  replica->replica && primary->pid == replica->pid)
          << "mutation " << m << " replays to lba " << lba << "/"
          << page.secondary;
    }
    for (const auto& [s, bytes] : touched) {
      const auto original = std::span<const std::uint8_t>(valid).subspan(
          static_cast<std::size_t>(s) * 512, 512);
      ASSERT_TRUE(disk.Write(layout.log_base + s, original).ok());
    }
  }
  // Most mutations only end the chain early, which is no refusal; an
  // unreadable pointer pair, a forged home and a resealed delta page are.
  for (int c = 0; c < kClasses; ++c) {
    EXPECT_GT(outcomes[1][c], 0) << "class " << c << " never accepted";
  }
  for (const Class c : {kPointer, kHome, kData}) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never refused";
  }
  EXPECT_GT(home_refusals, kMutations / 100);
}

}  // namespace
}  // namespace cedar::core

namespace cedar {
namespace {

// Mutation classes for whole-file formats: their framing is counts and
// lengths, not checksums.
enum FileClass {
  kFileBitFlips,
  kFileBytes,
  kFileCount,     // a u32 count set to an edge value
  kFileTruncate,  // a tail cut off
  kFileExtend,    // bytes appended
  kFileSplice,    // one stretch copied over another
  kFileClasses
};

// Applies `mutations` seeded mutations to `valid` and decodes each. An
// accepted input must re-encode to exactly its own bytes; a rejected one
// must fail with kCorruptMetadata (or `also_rejects`, when the format
// refuses some inputs with another code). `counts` holds the offsets of the
// format's u32 counts. Every class must be rejected at least once and
// accepted inputs must be common enough that the accepting path is
// checked too.
template <typename Decode, typename Encode>
void FuzzFileFormat(const std::vector<std::uint8_t>& valid,
                    const std::vector<std::size_t>& counts,
                    std::uint64_t seed, Decode decode, Encode encode,
                    ErrorCode also_rejects = ErrorCode::kCorruptMetadata) {
  constexpr int kMutations = 100000;
  {
    auto decoded = decode(valid);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(encode(*decoded), valid);
  }
  Rng rng(seed);
  int outcomes[2][kFileClasses] = {};
  for (int m = 0; m < kMutations; ++m) {
    std::vector<std::uint8_t> bytes = valid;
    const auto cls = static_cast<FileClass>(rng.Below(kFileClasses));
    switch (cls) {
      case kFileBitFlips:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          bytes[rng.Below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
      case kFileBytes:
        for (std::uint64_t n = rng.Between(1, 8); n > 0; --n) {
          bytes[rng.Below(bytes.size())] =
              static_cast<std::uint8_t>(rng.Next());
        }
        break;
      case kFileCount: {
        const std::size_t at = counts[rng.Below(counts.size())];
        const std::uint32_t now = ByteReader(
            std::span<const std::uint8_t>(bytes).subspan(at, 4)).U32();
        const std::uint32_t edges[] = {0,          now - 1,     now + 1,
                                       now + 2,    0x7FFFFFFFu, 0xFFFFFFFFu,
                                       static_cast<std::uint32_t>(rng.Next())};
        core::PutU32(bytes, at, edges[rng.Below(std::size(edges))]);
        break;
      }
      case kFileTruncate:
        bytes.resize(rng.Below(bytes.size()));
        break;
      case kFileExtend:
        for (std::uint64_t n = rng.Between(1, 16); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng.Next()));
        }
        break;
      case kFileSplice: {
        const std::size_t len = rng.Between(1, 64);
        const std::size_t from = rng.Below(bytes.size() - len);
        const std::size_t to = rng.Below(bytes.size() - len);
        std::copy_n(valid.begin() + from, len, bytes.begin() + to);
        break;
      }
      case kFileClasses:
        break;
    }
    auto decoded = decode(bytes);
    ++outcomes[decoded.ok() ? 1 : 0][cls];
    if (!decoded.ok()) {
      const ErrorCode code = decoded.status().code();
      ASSERT_TRUE(code == ErrorCode::kCorruptMetadata || code == also_rejects)
          << "mutation " << m << ": " << decoded.status().message();
      continue;
    }
    ASSERT_TRUE(encode(*decoded) == bytes)
        << "mutation " << m << " decoded to different bytes";
  }
  int accepted = 0;
  for (int c = 0; c < kFileClasses; ++c) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
    accepted += outcomes[1][c];
  }
  EXPECT_GT(accepted, kMutations / 10);
}

TEST(WorkloadTraceFuzzTest, AcceptedTracesReencodeToTheSameBytes) {
  std::vector<workload::TraceEntry> entries = crash::StandardWorkload();
  entries.resize(24);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].tenant = static_cast<std::uint16_t>(i % 3);
    entries[i].vtime_us = 1000 * i;
  }
  FuzzFileFormat(
      workload::SerializeTraceBinary(entries), {8}, 0xC3D02u,
      [](std::span<const std::uint8_t> bytes) {
        return workload::ParseTraceBinary(bytes);
      },
      [](const std::vector<workload::TraceEntry>& decoded) {
        return workload::SerializeTraceBinary(decoded);
      });
}

TEST(DiskTraceFuzzTest, AcceptedTracesReencodeToTheSameBytes) {
  obs::DiskTracer tracer;
  for (std::uint32_t i = 0; i < 12; ++i) {
    obs::ScopedOp root(&tracer, i % 2 == 0 ? "fsd.create" : "fsd.ckpt");
    obs::ScopedOp inner(&tracer, i % 3 == 0 ? "nt.read" : "log.force");
    tracer.Record(100 + i, 1 + i % 4, static_cast<obs::DiskOpKind>(i % 4),
                  1000 * i, i, 2 * i, 3 * i, 4, i % 5, i % 2);
  }
  const std::vector<std::uint8_t> valid = tracer.SerializeBinary();
  // Name count at 8; event count after the names, total and dropped.
  std::size_t events_at = 12;
  for (std::uint32_t id = 0; id < 5; ++id) {
    events_at += 2 + tracer.OpName(id).size();
  }
  events_at += 16;
  FuzzFileFormat(
      valid, {8, events_at}, 0x7C04u,
      [](std::span<const std::uint8_t> bytes) {
        return obs::DiskTracer::ParseBinary(bytes);
      },
      [](const obs::DiskTracer& decoded) { return decoded.SerializeBinary(); });
}

// A tiny custom geometry (8 sectors) keeps the sector data from drowning
// the state after it.
TEST(DiskImageFuzzTest, AcceptedImagesReencodeToTheSameBytes) {
  const sim::DiskGeometry geometry{
      .cylinders = 2, .heads = 1, .sectors_per_track = 4};
  sim::VirtualClock clock;
  sim::SimDisk disk(geometry, sim::DiskTimingParams{}, &clock);
  std::vector<std::uint8_t> sector(sim::kSectorSize, 0x5A);
  ASSERT_TRUE(disk.Write(1, sector).ok());
  const sim::Label label{.file_uid = 7, .page_number = 3,
                         .type = sim::PageType::kData};
  ASSERT_TRUE(disk.WriteLabels(2, {&label, 1}).ok());
  disk.DamageSectors(5, 2);
  disk.InjectTransientReadError(3, 2);
  disk.InjectTransientReadError(6, 1);
  disk.InjectPersistentFault(4, sim::FaultMode::kReadFail);
  disk.InjectPersistentFault(7, sim::FaultMode::kDead);
  disk.InjectWriteFault(0, sim::WriteFaultKind::kTorn);
  disk.SetFaultSchedule(sim::FaultSchedule{.seed = 9, .persistent_ppm = 10});
  disk.ArmCrash(sim::CrashPlan{.at_write_index = 5,
                               .sectors_completed = 1,
                               .sectors_damaged = 1,
                               .drop_writes = {1, 3}});
  const std::vector<std::uint8_t> valid =
      sim::SimDisk::EncodeImage(geometry, disk.Snapshot());
  // Header, data, labels, damage flags, crashed, has-plan, plan fields.
  const std::size_t drops_at = 20 + 8 * (sim::kSectorSize + 13 + 1) + 2 + 16;
  const std::size_t transient_at = drops_at + 4 + 2 * 8 + 8;
  const std::size_t persistent_at = transient_at + 4 + 2 * 8;
  const std::size_t pending_at = persistent_at + 4 + 2 * 5;
  sim::VirtualClock restore_clock;
  sim::SimDisk target(geometry, sim::DiskTimingParams{}, &restore_clock);
  FuzzFileFormat(
      valid, {drops_at, transient_at, persistent_at, pending_at}, 0x1A6E03u,
      [&](std::span<const std::uint8_t> bytes) {
        return sim::SimDisk::DecodeImage(bytes, geometry);
      },
      [&](const sim::DiskSnapshot& decoded) {
        // What a disk restored from the image would save again.
        target.Restore(decoded);
        return sim::SimDisk::EncodeImage(geometry, target.Snapshot());
      },
      ErrorCode::kInvalidArgument);  // a header naming another geometry
}

// Every mutation of a BENCH-shaped document either parses to a value whose
// dump parses back to the same dump, or fails kInvalidArgument naming the
// offset. Wrapping the document in brackets drives it past the nesting
// bound, which must fail the same way instead of exhausting the stack.
TEST(BenchJsonFuzzTest, AcceptedDocumentsDumpStably) {
  constexpr int kMutations = 100000;
  const std::string valid = R"({
  "schema_version": 2,
  "bench": "group_commit",
  "config_digest": "c176fa64",
  "config": {"mode": "scaling", "rounds": 200, "sat_threads": "1,4,8,"},
  "metrics": {
    "sat_1t_updates_per_vsec": {
      "value": 47.04471012, "direction": "higher", "unit": "updates/vsec"},
    "sat_1t_forces_per_update": {"value": 1, "direction": "lower"},
    "freerun_note": {"value": -1.5e-3, "direction": "info",
                     "tags": [null, true, false, "a\"bé\n"]}
  }
})";
  ASSERT_TRUE(util::ParseJson(valid).ok());
  constexpr std::string_view kTokens = "[]{},:\"\\0-.eE tfn";
  enum JsonClass { kJsonBytes, kJsonTokens, kJsonTruncate, kJsonSplice,
                   kJsonNest, kJsonClasses };
  Rng rng(0xB3A5Cu);
  int outcomes[2][kJsonClasses] = {};
  for (int m = 0; m < kMutations; ++m) {
    std::string text = valid;
    const auto cls = static_cast<JsonClass>(rng.Below(kJsonClasses));
    switch (cls) {
      case kJsonBytes:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          text[rng.Below(text.size())] = static_cast<char>(rng.Next());
        }
        break;
      case kJsonTokens:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          text[rng.Below(text.size())] = kTokens[rng.Below(kTokens.size())];
        }
        break;
      case kJsonTruncate:
        text.resize(rng.Below(text.size()));
        break;
      case kJsonSplice: {
        const std::size_t len = rng.Between(1, 32);
        const std::size_t from = rng.Below(valid.size() - len);
        text.insert(rng.Below(text.size()), valid.substr(from, len));
        break;
      }
      case kJsonNest: {
        const std::size_t depth = rng.Between(1, 2 * util::kMaxJsonDepth);
        text = std::string(depth, '[') + text + std::string(depth, ']');
        break;
      }
      case kJsonClasses:
        break;
    }
    auto parsed = util::ParseJson(text);
    ++outcomes[parsed.ok() ? 1 : 0][cls];
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument)
          << "mutation " << m << ": " << parsed.status().message();
      ASSERT_NE(parsed.status().message().find("offset"), std::string::npos)
          << "mutation " << m << ": " << parsed.status().message();
      continue;
    }
    const std::string dumped = parsed->Dump();
    auto again = util::ParseJson(dumped);
    ASSERT_TRUE(again.ok()) << "mutation " << m << ": "
                            << again.status().message();
    ASSERT_EQ(again->Dump(), dumped) << "mutation " << m;
  }
  int accepted = 0;
  for (int c = 0; c < kJsonClasses; ++c) {
    EXPECT_GT(outcomes[0][c], 0) << "class " << c << " never rejected";
    accepted += outcomes[1][c];
  }
  EXPECT_GT(outcomes[1][kJsonNest], 0) << "no nesting within the bound";
  EXPECT_GT(accepted, kMutations / 20);
}

}  // namespace
}  // namespace cedar
