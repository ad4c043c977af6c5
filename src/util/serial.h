// Little-endian byte-buffer serialization used for all on-"disk" structures.
//
// Every metadata structure in the reproduction (name table entries, log
// record headers, leader pages, superblocks, inodes) is serialized through
// these cursors so the byte layout is explicit and testable.

#ifndef CEDAR_UTIL_SERIAL_H_
#define CEDAR_UTIL_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"
#include "src/util/crc32.h"

namespace cedar {

// Appends fixed-width little-endian values, varints and length-prefixed
// strings to a growable byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::uint8_t>* out) : external_(out) {}

  void U8(std::uint8_t v) { Push(&v, 1); }
  void U16(std::uint16_t v) { PushLe(v); }
  void U32(std::uint32_t v) { PushLe(v); }
  void U64(std::uint64_t v) { PushLe(v); }

  // Unsigned LEB128: seven bits per byte, low group first, the high bit set
  // on every byte but the last. 1 byte below 2^7, at most 10 for a u64.
  void Var(std::uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    U8(static_cast<std::uint8_t>(v));
  }

  // Length-prefixed (u16) string; limited to 65535 bytes.
  void Str(std::string_view s) {
    CEDAR_CHECK(s.size() <= 0xFFFF);
    U16(static_cast<std::uint16_t>(s.size()));
    Push(s.data(), s.size());
  }

  void Bytes(std::span<const std::uint8_t> data) {
    Push(data.data(), data.size());
  }

  // A file format's magic, written as its bare characters.
  void Magic(std::string_view magic) { Push(magic.data(), magic.size()); }

  const std::vector<std::uint8_t>& buffer() const { return Buf(); }
  std::vector<std::uint8_t> Take() { return std::move(Buf()); }
  std::size_t size() const { return Buf().size(); }

 private:
  std::vector<std::uint8_t>& Buf() { return external_ ? *external_ : owned_; }
  const std::vector<std::uint8_t>& Buf() const {
    return external_ ? *external_ : owned_;
  }

  template <typename T>
  void PushLe(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    Push(bytes, sizeof(T));
  }

  void Push(const void* data, std::size_t n) {
    auto& buf = Buf();
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* external_ = nullptr;
};

// Reads values written by ByteWriter. Bounds errors set a sticky failure
// flag (and return zeros) instead of crashing, so corrupt metadata can be
// detected with `ok()` after parsing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }

  // Reads a varint written by ByteWriter::Var. Only the canonical (shortest)
  // encoding is accepted: truncation, an overlong form (a zero final byte
  // after the first) and a 10th byte carrying bits past 2^64 all fail.
  std::uint64_t Var() {
    std::uint64_t v = 0;
    for (int shift = 0; Need(1); shift += 7) {
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && byte > 1) {
        break;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift != 0) {
          break;
        }
        return v;
      }
    }
    ok_ = false;
    return 0;
  }

  std::string Str() {
    std::uint16_t n = U16();
    if (!Need(n)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> Bytes(std::size_t n) {
    if (!Need(n)) {
      return {};
    }
    std::vector<std::uint8_t> out(data_.begin() + pos_,
                                  data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  // Consumes `magic` (ByteWriter::Magic); false, and the reader failed,
  // when the next bytes differ.
  bool Magic(std::string_view magic) {
    if (Need(magic.size()) &&
        std::memcmp(data_.data() + pos_, magic.data(), magic.size()) == 0) {
      pos_ += magic.size();
      return true;
    }
    ok_ = false;
    return false;
  }

  // Reads a u32 count of records that take at least `min_record` bytes
  // each. A count the remaining bytes cannot hold fails, so no decoder
  // sizes a container from a garbage count.
  std::uint32_t Count(std::size_t min_record) {
    const std::uint32_t n = U32();
    if (n > remaining() / min_record) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool ok() const { return ok_; }
  // Every byte read and nothing failed: a whole-file decoder's last check.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T ReadLe() {
    if (!Need(sizeof(T))) {
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  bool Need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// A self-checking block of `size` bytes (a sector by default): the
// writer's bytes, a CRC over them, zero padding. CheckSeal validates one
// given the body length its parser consumed (false when the CRC would not
// fit the block).
inline std::vector<std::uint8_t> SealSector(ByteWriter w,
                                            std::size_t size = 512) {
  std::vector<std::uint8_t> body = w.Take();
  const std::uint32_t crc = Crc32(body);
  ByteWriter(&body).U32(crc);
  CEDAR_CHECK(body.size() <= size);
  std::vector<std::uint8_t> buf(size, 0);
  std::memcpy(buf.data(), body.data(), body.size());
  return buf;
}

inline bool CheckSeal(std::span<const std::uint8_t> sector,
                      std::size_t body_len) {
  if (body_len + 4 > sector.size()) {
    return false;
  }
  ByteReader r(sector.subspan(body_len, 4));
  return r.U32() == Crc32(sector.subspan(0, body_len));
}

}  // namespace cedar

#endif  // CEDAR_UTIL_SERIAL_H_
