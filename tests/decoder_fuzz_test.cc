// Seeded mutation fuzzing of on-disk decoders, on the in-repo Rng (no
// external fuzzer). Each mutation keeps the bytes' checksum valid, so it
// reaches the parser's semantic checks instead of bouncing off the CRC.
// Runs under the "fuzz" ctest label (included by the asan preset) and in
// plain tier-1 ctest.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/layout.h"
#include "src/core/nt_store.h"
#include "src/sim/geometry.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/util/serial.h"

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
      {layout.ntb_base + 7, spare_low + 1},
      {layout.nta_base + 3, spare_low},
      {layout.nta_base + 63, spare_end - 1}};
  const std::vector<std::uint8_t> valid =
      NtStore::EncodeRemapDirectory(table);
  {
    auto decoded = NtStore::DecodeRemapDirectory(valid, layout);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(*decoded, table);
  }
  auto is_home = [&](sim::Lba lba) {
    return (lba >= layout.nta_base && lba < layout.nta_end) ||
           (lba >= layout.ntb_base &&
            lba < layout.ntb_base + config.nt_pages);
  };
  // Values near every boundary the decoder must enforce, plus noise.
  const std::vector<sim::Lba> edges = {
      0,
      layout.remap_base,
      spare_low - 1,
      spare_low,
      spare_end - 1,
      spare_end,
      layout.ntb_base - 1,
      layout.ntb_base,
      layout.ntb_base + config.nt_pages - 1,
      layout.ntb_base + config.nt_pages,
      layout.nta_base - 1,
      layout.nta_base,
      layout.nta_end - 1,
      layout.nta_end,
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

}  // namespace
}  // namespace cedar::core
