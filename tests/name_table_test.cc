// Serialization tests for FSD name-table entries, leader pages, and the
// name-key encoding shared by both systems.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/core/allocator.h"
#include "src/core/name_table.h"
#include "src/fsapi/name_key.h"
#include "src/util/random.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

FsdEntry SampleEntry() {
  FsdEntry entry;
  entry.uid = 0x500000007ull;
  entry.keep = 2;
  entry.byte_size = 123456;
  entry.create_time = 777777;
  entry.last_used = 888888;
  entry.leader_lba = 4242;
  entry.runs = {{.start = 4243, .count = 100}, {.start = 9000, .count = 142}};
  return entry;
}

TEST(FsdEntryTest, RoundTrip) {
  const FsdEntry entry = SampleEntry();
  auto bytes = SerializeEntry(entry);
  FsdEntry parsed;
  ASSERT_TRUE(ParseEntry(bytes, &parsed).ok());
  EXPECT_EQ(parsed.uid, entry.uid);
  EXPECT_EQ(parsed.keep, entry.keep);
  EXPECT_EQ(parsed.byte_size, entry.byte_size);
  EXPECT_EQ(parsed.create_time, entry.create_time);
  EXPECT_EQ(parsed.last_used, entry.last_used);
  EXPECT_EQ(parsed.leader_lba, entry.leader_lba);
  EXPECT_EQ(parsed.runs, entry.runs);
}

TEST(FsdEntryTest, TruncatedRejected) {
  auto bytes = SerializeEntry(SampleEntry());
  bytes.resize(bytes.size() - 3);
  FsdEntry parsed;
  EXPECT_EQ(ParseEntry(bytes, &parsed).code(), ErrorCode::kCorruptMetadata);
}

TEST(FsdEntryTest, TrailingGarbageRejected) {
  auto bytes = SerializeEntry(SampleEntry());
  bytes.push_back(0xFF);
  FsdEntry parsed;
  EXPECT_EQ(ParseEntry(bytes, &parsed).code(), ErrorCode::kCorruptMetadata);
}

// ---- The varint entry codec.

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
constexpr std::uint64_t kU32Limit = std::uint64_t{1} << 32;

// The entry as its field list, in encoding order: uid keep byte_size
// create_time last_used leader_lba run_count (start count)*.
std::vector<std::uint64_t> Fields(const FsdEntry& entry) {
  std::vector<std::uint64_t> fields = {
      entry.uid,       entry.keep,       entry.byte_size,   entry.create_time,
      entry.last_used, entry.leader_lba, entry.runs.size()};
  for (const fs::Extent& run : entry.runs) {
    fields.push_back(run.start);
    fields.push_back(run.count);
  }
  return fields;
}

std::vector<std::uint8_t> Encode(const std::vector<std::uint64_t>& fields) {
  ByteWriter w;
  for (const std::uint64_t v : fields) {
    w.Var(v);
  }
  return w.Take();
}

// The largest entry: every field at its type's maximum and kMaxRuns runs
// whose starts and counts each need five bytes.
FsdEntry WorstCaseEntry() {
  FsdEntry entry;
  entry.uid = kU64Max;
  entry.keep = 0xFFFF;
  entry.byte_size = kU64Max;
  entry.create_time = kU64Max;
  entry.last_used = kU64Max;
  entry.leader_lba = 0xFFFFFFFF;
  for (std::size_t i = 0; i < RunAllocator::kMaxRuns; ++i) {
    entry.runs.push_back({.start = 0x80000000u, .count = 0x80000000u});
  }
  return entry;
}

TEST(FsdEntryTest, LayoutIsOneVarintPerField) {
  const FsdEntry entry = SampleEntry();
  EXPECT_EQ(SerializeEntry(entry), Encode(Fields(entry)));
  // A two-run entry with values of a real volume: 25 bytes, where the
  // fixed-width layout took 56.
  EXPECT_EQ(SerializeEntry(entry).size(), 25u);
}

TEST(FsdEntryTest, ExtremeValuesRoundTrip) {
  for (const FsdEntry& entry : {FsdEntry{}, WorstCaseEntry()}) {
    const std::vector<std::uint8_t> bytes = SerializeEntry(entry);
    FsdEntry parsed;
    ASSERT_TRUE(ParseEntry(bytes, &parsed).ok());
    EXPECT_EQ(Fields(parsed), Fields(entry));
  }
  EXPECT_EQ(SerializeEntry(FsdEntry{}).size(), 7u);
  // The bound DESIGN.md states: 4 u64 fields x 10 + keep 3 + leader 5 +
  // run count 1 + 16 runs x (5 + 5).
  EXPECT_EQ(SerializeEntry(WorstCaseEntry()).size(), 209u);
  FsdEntry edge;
  edge.runs = {{.start = 0xFFFFFFFFu, .count = 1}, {.start = 0, .count = 0}};
  FsdEntry parsed;
  ASSERT_TRUE(ParseEntry(SerializeEntry(edge), &parsed).ok());
  EXPECT_EQ(parsed.runs, edge.runs);
}

// The longest name that still fits a name-table page next to the largest
// entry. A 504-byte page payload (a 512-byte sector less its trailer)
// admits 241 bytes of key plus value; the key is the name, a NUL and a
// 4-byte version.
TEST(FsdEntryTest, LongestNameBesideTheLargestEntry) {
  constexpr std::size_t kLongestName = 27;
  btree::MemPageStore store(504);
  btree::BTree tree(&store, 0);
  ASSERT_TRUE(tree.Create().ok());
  ASSERT_EQ(tree.MaxEntrySize(), 241u);
  const std::vector<std::uint8_t> value = SerializeEntry(WorstCaseEntry());
  EXPECT_TRUE(
      tree.Insert(fs::EncodeNameKey(std::string(kLongestName, 'n'), 1), value)
          .ok());
  EXPECT_EQ(tree.Insert(fs::EncodeNameKey(std::string(kLongestName + 1, 'n'),
                                          1),
                        value)
                .code(),
            ErrorCode::kInvalidArgument);
}

// A value below 2^bits, with the width itself drawn uniformly, so short
// and long encodings are equally common.
std::uint64_t RandomWidth(Rng& rng, int max_bits) {
  const int bits = static_cast<int>(rng.Between(0, max_bits));
  return bits == 0 ? 0 : rng.Next() >> (64 - bits);
}

FsdEntry RandomEntry(Rng& rng) {
  FsdEntry entry;
  entry.uid = RandomWidth(rng, 64);
  entry.keep = static_cast<std::uint16_t>(RandomWidth(rng, 16));
  entry.byte_size = RandomWidth(rng, 64);
  entry.create_time = RandomWidth(rng, 64);
  entry.last_used = RandomWidth(rng, 64);
  entry.leader_lba = static_cast<std::uint32_t>(RandomWidth(rng, 32));
  const std::uint64_t nruns = rng.Between(0, RunAllocator::kMaxRuns);
  for (std::uint64_t i = 0; i < nruns; ++i) {
    entry.runs.push_back(
        {.start = static_cast<std::uint32_t>(RandomWidth(rng, 31)),
         .count = static_cast<std::uint32_t>(RandomWidth(rng, 31))});
  }
  return entry;
}

// Seeded mutations of valid entries. Each targeted class below must be
// rejected; random byte damage may parse only when the damaged bytes are
// themselves the canonical encoding of what they parse to.
TEST(FsdEntryTest, MutationsAreRejected) {
  constexpr int kMutations = 100000;
  enum Class {
    kTruncate,
    kTrailing,
    kOverlong,
    kTenthByte,
    kKeepRange,
    kLeaderRange,
    kRunRange,
    kTooManyRuns,
    kByteDamage,
    kClasses
  };
  Rng rng(0x5EEDC0DEu);
  int accepted_bad[kClasses] = {};
  int damaged_accepted = 0;
  for (int m = 0; m < kMutations; ++m) {
    const FsdEntry entry = RandomEntry(rng);
    std::vector<std::uint64_t> fields = Fields(entry);
    std::vector<std::uint8_t> bytes = Encode(fields);
    {
      FsdEntry parsed;
      ASSERT_TRUE(ParseEntry(bytes, &parsed).ok());
      ASSERT_EQ(Fields(parsed), fields);
    }
    // Re-encodes with field `f` written as `raw` instead of its varint.
    auto with_raw_field = [&](std::size_t f, std::vector<std::uint8_t> raw) {
      std::vector<std::uint8_t> out;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i == f) {
          out.insert(out.end(), raw.begin(), raw.end());
        } else {
          ByteWriter w(&out);
          w.Var(fields[i]);
        }
      }
      return out;
    };
    const auto cls = static_cast<Class>(rng.Below(kClasses));
    switch (cls) {
      case kTruncate:
        bytes.resize(rng.Below(bytes.size()));
        break;
      case kTrailing:
        for (std::uint64_t n = rng.Between(1, 4); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng.Next()));
        }
        break;
      case kOverlong: {
        const std::size_t f = rng.Below(fields.size());
        ByteWriter w;
        w.Var(fields[f]);
        std::vector<std::uint8_t> raw = w.Take();
        // One or more zero groups past the last significant one.
        for (std::uint64_t n = rng.Between(1, 2); n > 0; --n) {
          raw.back() |= 0x80;
          raw.push_back(0x00);
        }
        bytes = with_raw_field(f, raw);
        break;
      }
      case kTenthByte: {
        // Fields that may hold a full u64: uid, byte_size and the times.
        static constexpr std::size_t kWide[] = {0, 2, 3, 4};
        std::vector<std::uint8_t> raw(9, 0xFF);
        raw.push_back(static_cast<std::uint8_t>(rng.Between(0x02, 0xFF)));
        bytes = with_raw_field(kWide[rng.Below(4)], raw);
        break;
      }
      case kKeepRange:
        fields[1] = rng.Between(0x10000, kU64Max);
        bytes = Encode(fields);
        break;
      case kLeaderRange:
        fields[5] = rng.Between(kU32Limit, kU64Max);
        bytes = Encode(fields);
        break;
      case kRunRange: {
        if (fields[6] == 0) {
          fields[6] = 1;
          fields.push_back(0);
          fields.push_back(0);
        }
        const std::size_t run = 7 + 2 * rng.Below(fields[6]);
        if (rng.Chance(0.5)) {
          fields[run] = rng.Between(kU32Limit, kU64Max);
        } else {
          fields[run + 1] = rng.Between(kU32Limit - fields[run] + 1, kU64Max);
        }
        bytes = Encode(fields);
        break;
      }
      case kTooManyRuns: {
        const std::uint64_t nruns =
            rng.Chance(0.5) ? rng.Between(RunAllocator::kMaxRuns + 1, 40)
                            : rng.Between(41, kU64Max);
        fields[6] = nruns;
        for (std::uint64_t i = entry.runs.size(); i < std::min<std::uint64_t>(
                                                      nruns, 40);
             ++i) {
          fields.push_back(RandomWidth(rng, 31));
          fields.push_back(RandomWidth(rng, 31));
        }
        bytes = Encode(fields);
        break;
      }
      case kByteDamage:
        for (std::uint64_t n = rng.Between(1, 3); n > 0 && !bytes.empty();
             --n) {
          bytes[rng.Below(bytes.size())] ^=
              static_cast<std::uint8_t>(rng.Between(1, 0xFF));
        }
        break;
      case kClasses:
        break;
    }
    FsdEntry parsed;
    const Status status = ParseEntry(bytes, &parsed);
    if (cls != kByteDamage) {
      if (status.ok()) {
        ++accepted_bad[cls];
      } else {
        EXPECT_EQ(status.code(), ErrorCode::kCorruptMetadata);
      }
    } else if (status.ok()) {
      ++damaged_accepted;
      EXPECT_LE(parsed.runs.size(), RunAllocator::kMaxRuns);
      EXPECT_EQ(SerializeEntry(parsed), bytes);
    }
  }
  for (int c = 0; c < kByteDamage; ++c) {
    EXPECT_EQ(accepted_bad[c], 0) << "mutation class " << c;
  }
  // Most single-byte damage keeps a canonical encoding (any byte below
  // 0x80 in place of another), so a share of it parses; the check above is
  // that each such parse is exactly what the bytes say.
  EXPECT_GT(damaged_accepted, 0);
}

TEST(LeaderTest, RoundTripAndVerify) {
  const FsdEntry entry = SampleEntry();
  const LeaderPage leader = MakeLeader(entry, /*version=*/3);
  auto sector = SerializeLeader(leader);
  ASSERT_EQ(sector.size(), 512u);

  LeaderPage parsed;
  ASSERT_TRUE(ParseLeader(sector, &parsed).ok());
  EXPECT_EQ(parsed.uid, entry.uid);
  EXPECT_EQ(parsed.version, 3u);
  EXPECT_EQ(parsed.preamble, entry.runs);  // both runs fit the preamble

  EXPECT_TRUE(VerifyLeader(sector, entry, 3).ok());
}

TEST(LeaderTest, PreambleCapsAtFourRuns) {
  FsdEntry entry = SampleEntry();
  entry.runs.clear();
  for (std::uint32_t i = 0; i < 10; ++i) {
    entry.runs.push_back({.start = 1000 * (i + 1), .count = 5});
  }
  const LeaderPage leader = MakeLeader(entry, 1);
  EXPECT_EQ(leader.preamble.size(), 4u);
  // Verification checks the crc over the FULL run table.
  auto sector = SerializeLeader(leader);
  EXPECT_TRUE(VerifyLeader(sector, entry, 1).ok());
}

TEST(LeaderTest, VerifyCatchesUidMismatch) {
  const FsdEntry entry = SampleEntry();
  auto sector = SerializeLeader(MakeLeader(entry, 1));
  FsdEntry other = entry;
  other.uid ^= 1;
  EXPECT_EQ(VerifyLeader(sector, other, 1).code(),
            ErrorCode::kCorruptMetadata);
}

TEST(LeaderTest, VerifyCatchesVersionMismatch) {
  const FsdEntry entry = SampleEntry();
  auto sector = SerializeLeader(MakeLeader(entry, 1));
  EXPECT_EQ(VerifyLeader(sector, entry, 2).code(),
            ErrorCode::kCorruptMetadata);
}

TEST(LeaderTest, VerifyCatchesRunTableChange) {
  const FsdEntry entry = SampleEntry();
  auto sector = SerializeLeader(MakeLeader(entry, 1));
  FsdEntry grown = entry;
  grown.runs.push_back({.start = 20000, .count = 8});
  EXPECT_EQ(VerifyLeader(sector, grown, 1).code(),
            ErrorCode::kCorruptMetadata);
}

TEST(LeaderTest, CorruptSectorRejected) {
  auto sector = SerializeLeader(MakeLeader(SampleEntry(), 1));
  sector[10] ^= 0x40;
  LeaderPage parsed;
  EXPECT_FALSE(ParseLeader(sector, &parsed).ok());
}

TEST(NameKeyTest, RoundTrip) {
  auto key = fs::EncodeNameKey("Compiler.bcd", 37);
  std::string name;
  std::uint32_t version = 0;
  ASSERT_TRUE(fs::DecodeNameKey(key, &name, &version));
  EXPECT_EQ(name, "Compiler.bcd");
  EXPECT_EQ(version, 37u);
}

TEST(NameKeyTest, VersionsSortAscending) {
  using btree::CompareKeys;
  EXPECT_LT(CompareKeys(fs::EncodeNameKey("f", 1), fs::EncodeNameKey("f", 2)),
            0);
  EXPECT_LT(CompareKeys(fs::EncodeNameKey("f", 9),
                        fs::EncodeNameKey("f", 10)),
            0);  // big-endian version bytes keep numeric order
  EXPECT_LT(CompareKeys(fs::EncodeNameKey("f", 255),
                        fs::EncodeNameKey("f", 256)),
            0);
}

TEST(NameKeyTest, PrefixAndExactMatch) {
  auto key = fs::EncodeNameKey("proj/sub/file.mesa", 2);
  EXPECT_TRUE(fs::KeyIsName(key, "proj/sub/file.mesa"));
  EXPECT_FALSE(fs::KeyIsName(key, "proj/sub/file.mes"));
  EXPECT_TRUE(fs::KeyHasPrefix(key, "proj/"));
  EXPECT_TRUE(fs::KeyHasPrefix(key, ""));
  EXPECT_FALSE(fs::KeyHasPrefix(key, "other/"));
}

TEST(NameKeyTest, ExtensionNamesDoNotCollide) {
  // "abc" and "abcd" must never satisfy KeyIsName for each other.
  auto key = fs::EncodeNameKey("abc", 1);
  EXPECT_FALSE(fs::KeyIsName(key, "abcd"));
  auto longer = fs::EncodeNameKey("abcd", 1);
  EXPECT_FALSE(fs::KeyIsName(longer, "abc"));
}

}  // namespace
}  // namespace cedar::core
