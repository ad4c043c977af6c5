#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "src/util/serial.h"
#include "src/util/status.h"

namespace cedar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = MakeError(ErrorCode::kSectorDamaged, "lba 17");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kSectorDamaged);
  EXPECT_EQ(s.ToString(), "SECTOR_DAMAGED: lba 17");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kChecksumMismatch); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = MakeError(ErrorCode::kNotFound);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

Status ReturnsIfError(bool fail) {
  CEDAR_RETURN_IF_ERROR(fail ? MakeError(ErrorCode::kInternal) : OkStatus());
  return OkStatus();
}

TEST(StatusMacrosTest, ReturnIfError) {
  EXPECT_TRUE(ReturnsIfError(false).ok());
  EXPECT_EQ(ReturnsIfError(true).code(), ErrorCode::kInternal);
}

Result<int> Doubled(Result<int> in) {
  CEDAR_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(StatusMacrosTest, AssignOrReturn) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(MakeError(ErrorCode::kNotFound)).status().code(),
            ErrorCode::kNotFound);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> buf(512, 0xA5);
  const std::uint32_t base = Crc32(buf);
  for (int bit : {0, 7, 2048, 4095}) {
    auto copy = buf;
    copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(copy), base) << "bit " << bit;
  }
}

TEST(Crc32Test, ChainingMatchesWhole) {
  std::vector<std::uint8_t> buf(100);
  for (int i = 0; i < 100; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::uint32_t whole = Crc32(buf);
  const std::uint32_t part1 =
      Crc32(std::span<const std::uint8_t>(buf).subspan(0, 40));
  const std::uint32_t chained =
      Crc32(std::span<const std::uint8_t>(buf).subspan(40), part1);
  EXPECT_EQ(chained, whole);
}

// Bytewise reflected CRC-32, one bit at a time: the definition the sliced
// implementation must reproduce.
std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> data,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(32);
  std::vector<std::uint8_t> buf(1100 + 8);
  for (std::uint8_t& byte : buf) {
    byte = static_cast<std::uint8_t>(rng.Next());
  }
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const auto data = all.subspan(offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(data, seed), ReferenceCrc32(data, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32Test, ChainedAtEverySplitMatchesReference) {
  Rng rng(33);
  std::vector<std::uint8_t> buf(300);
  for (std::uint8_t& byte : buf) {
    byte = static_cast<std::uint8_t>(rng.Next());
  }
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = ReferenceCrc32(all, 0);
  for (std::size_t a = 0; a <= all.size(); a += 7) {
    for (std::size_t b = a; b <= all.size(); b += 13) {
      std::uint32_t crc = Crc32(all.subspan(0, a));
      crc = Crc32(all.subspan(a, b - a), crc);
      crc = Crc32(all.subspan(b), crc);
      ASSERT_EQ(crc, whole) << "splits " << a << " " << b;
    }
  }
}

TEST(SerialTest, RoundTripAllTypes) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0x12345678);
  w.U64(0xDEADBEEFCAFEF00Dull);
  w.Str("hello!file;37");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xCDEF);
  EXPECT_EQ(r.U32(), 0x12345678u);
  EXPECT_EQ(r.U64(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(r.Str(), "hello!file;37");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, LittleEndianLayout) {
  ByteWriter w;
  w.U32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(SerialTest, OverrunSetsFailureFlag) {
  std::vector<std::uint8_t> tiny{1, 2};
  ByteReader r(tiny);
  r.U32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // stays failed, returns zeros
}

TEST(SerialTest, TruncatedStringFails) {
  ByteWriter w;
  w.U16(100);  // claims 100 bytes, provides none
  ByteReader r(w.buffer());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

// Every width boundary round-trips in the fewest bytes: one byte per seven
// bits, ten for the top of the u64 range.
TEST(SerialTest, VarRoundTripsAtEveryWidth) {
  for (int bits = 0; bits <= 64; ++bits) {
    const std::uint64_t top = bits == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << bits) - 1;
    for (const std::uint64_t v : {top, top + (bits == 64 ? 0 : 1)}) {
      ByteWriter w;
      w.Var(v);
      int want = 1;
      for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) {
        ++want;
      }
      EXPECT_EQ(w.size(), static_cast<std::size_t>(want)) << v;
      ByteReader r(w.buffer());
      EXPECT_EQ(r.Var(), v);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
    }
  }
}

TEST(SerialTest, VarRejectsNonCanonicalInput) {
  auto parses = [](std::vector<std::uint8_t> bytes) {
    ByteReader r(bytes);
    r.Var();
    return r.ok();
  };
  EXPECT_TRUE(parses({0x00}));
  EXPECT_FALSE(parses({}));                  // truncated
  EXPECT_FALSE(parses({0x80}));              // truncated continuation
  EXPECT_FALSE(parses({0x80, 0x00}));        // overlong zero
  EXPECT_FALSE(parses({0xFF, 0x80, 0x00}));  // overlong 127
  std::vector<std::uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  EXPECT_TRUE(parses(max));  // 2^64 - 1
  max.back() = 0x02;
  EXPECT_FALSE(parses(max));  // bit 64 set in the 10th byte
  max.back() = 0x81;
  EXPECT_FALSE(parses(max));  // an 11th byte announced
  max.back() = 0x00;
  EXPECT_FALSE(parses(max));  // overlong 10th byte
}

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.Between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear in 200 draws
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  auto parsed = util::ParseJson(
      R"({"n": 3.5, "i": -12, "s": "a\"b\n", "t": true, "z": null,
          "arr": [1, 2, 3], "obj": {"k": "v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const util::JsonValue& root = parsed.value();
  EXPECT_EQ(root.NumberOr("n", 0), 3.5);
  EXPECT_EQ(root.NumberOr("i", 0), -12);
  EXPECT_EQ(root.StringOr("s", ""), "a\"b\n");
  ASSERT_NE(root.Find("t"), nullptr);
  EXPECT_TRUE(root.Find("t")->AsBool());
  EXPECT_TRUE(root.Find("z")->is_null());
  ASSERT_NE(root.Find("arr"), nullptr);
  EXPECT_EQ(root.Find("arr")->items().size(), 3u);
  EXPECT_EQ(root.Find("obj")->StringOr("k", ""), "v");
}

TEST(JsonTest, RejectsMalformedInputWithOffset) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\": }", "tru", "\"unterminated", "1 2", ""}) {
    auto parsed = util::ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
  }
  auto parsed = util::ParseJson("{\"a\": nope}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
}

TEST(JsonTest, DecodesUnicodeEscapes) {
  // BMP escapes: ASCII, 2-byte (U+00E9), 3-byte (U+20AC), mixed hex case.
  auto parsed = util::ParseJson("{\"s\": \"\\u0041\\u00e9\\u20AC\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().StringOr("s", ""), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, DecodesSurrogatePairs) {
  // 𝄞 = U+1D11E (musical G clef) = F0 9D 84 9E in UTF-8.
  auto parsed = util::ParseJson("{\"s\": \"x\\uD834\\udd1ey\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().StringOr("s", ""), "x\xF0\x9D\x84\x9Ey");
  // 􏿿 = U+10FFFF, the top of the supplementary planes.
  auto top = util::ParseJson("[\"\\uDBFF\\uDFFF\"]");
  ASSERT_TRUE(top.ok()) << top.status().message();
  EXPECT_EQ(top.value().items()[0].AsString(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonTest, RejectsUnpairedSurrogates) {
  for (const char* bad : {
           R"(["\uD834"])",         // high surrogate at end of string
           R"(["\uD834x"])",        // high surrogate, no following escape
           R"(["\uD834\n"])",       // high surrogate, wrong escape
           R"(["\uD834\uD834"])",   // high followed by another high
           R"(["\uDD1E"])",         // lone low surrogate
           R"(["\uD834\uZZZZ"])",   // bad hex in the pair's second half
       }) {
    auto parsed = util::ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
  }
}

TEST(JsonTest, DumpParseRoundTrips) {
  auto obj = util::JsonValue::Object();
  obj.Set("name", util::JsonValue::String("bench"));
  obj.Set("count", util::JsonValue::Number(42));
  obj.Set("ratio", util::JsonValue::Number(0.125));
  auto arr = util::JsonValue::Array();
  arr.Append(util::JsonValue::Bool(false));
  arr.Append(util::JsonValue::Null());
  obj.Set("tail", std::move(arr));
  auto reparsed = util::ParseJson(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed.value().StringOr("name", ""), "bench");
  EXPECT_EQ(reparsed.value().NumberOr("count", 0), 42);
  EXPECT_EQ(reparsed.value().NumberOr("ratio", 0), 0.125);
  EXPECT_EQ(reparsed.value().Find("tail")->items().size(), 2u);
}

TEST(JsonTest, BoundsNestingDepth) {
  auto nested = [](std::size_t depth, std::string_view open,
                   std::string_view close) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) {
      text += open;
    }
    text += "1";
    for (std::size_t i = 0; i < depth; ++i) {
      text += close;
    }
    return text;
  };
  EXPECT_TRUE(util::ParseJson(nested(util::kMaxJsonDepth, "[", "]")).ok());
  EXPECT_TRUE(
      util::ParseJson(nested(util::kMaxJsonDepth, "{\"k\":", "}")).ok());
  // One level past the bound fails at the offset of the bracket that opens
  // it; objects count toward the same bound.
  for (const auto& [open, close] :
       {std::pair<std::string_view, std::string_view>{"[", "]"},
        {"{\"k\":", "}"}}) {
    auto deep = util::ParseJson(nested(util::kMaxJsonDepth + 1, open, close));
    ASSERT_FALSE(deep.ok()) << open;
    EXPECT_EQ(deep.status().code(), ErrorCode::kInvalidArgument);
    const std::string offset =
        "offset " + std::to_string(util::kMaxJsonDepth * open.size());
    EXPECT_NE(deep.status().message().find(offset), std::string::npos)
        << deep.status().message();
  }
  // Far past the bound — input that once overflowed the stack — fails the
  // same way.
  auto huge = util::ParseJson(std::string(200000, '[') +
                              std::string(200000, ']'));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), ErrorCode::kInvalidArgument);
}

TEST(JsonTest, LoadJsonFileNamesAMissingFile) {
  const std::string path = "/nonexistent-dir/missing.json";
  auto loaded = util::LoadJsonFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotFound);
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().message();
}

TEST(JsonTest, LoadJsonFileRoundTripsACheckedInBaseline) {
  // The perf gate reads every checked-in baseline through LoadJsonFile.
  const std::string path =
      std::string(CEDAR_SOURCE_DIR) + "/BENCH_group_commit.json";
  auto loaded = util::LoadJsonFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded->is_object());
  EXPECT_NE(loaded->Find("metrics"), nullptr);
  const std::string dumped = loaded->Dump();
  auto reparsed = util::ParseJson(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed->Dump(), dumped);
}

TEST(JsonTest, SetReplacesExistingKeys) {
  auto obj = util::JsonValue::Object();
  obj.Set("k", util::JsonValue::Number(1));
  obj.Set("k", util::JsonValue::Number(2));
  EXPECT_EQ(obj.members().size(), 1u);
  EXPECT_EQ(obj.NumberOr("k", 0), 2);
}

}  // namespace
}  // namespace cedar
