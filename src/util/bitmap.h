// A packed bitmap over sector numbers, the representation behind both
// systems' Volume Allocation Map (VAM). Bit set = sector free.
//
// Run searches work a 64-bit word at a time: a run crossing words is
// carried as a length from countr_one / countl_one, and runs inside a word
// are found with a few shift-and steps, so no search tests single bits. For
// every (from, count) they return exactly what a bit-at-a-time scan returns,
// so allocation decisions do not depend on the representation.

#ifndef CEDAR_UTIL_BITMAP_H_
#define CEDAR_UTIL_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/check.h"

namespace cedar {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::uint32_t size, bool initial = false)
      : size_(size), words_((size + 63) / 64, initial ? ~0ull : 0ull) {
    TrimTail();
  }

  std::uint32_t size() const { return size_; }

  bool Get(std::uint32_t i) const {
    CEDAR_CHECK(i < size_);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void Set(std::uint32_t i, bool value) {
    CEDAR_CHECK(i < size_);
    if (value) {
      words_[i / 64] |= (1ull << (i % 64));
    } else {
      words_[i / 64] &= ~(1ull << (i % 64));
    }
  }

  // Sets or clears [start, start + count), a word at a time.
  void SetRange(std::uint32_t start, std::uint32_t count, bool value) {
    if (count == 0) {
      return;
    }
    CEDAR_CHECK(start < size_ && count <= size_ - start);
    const std::uint32_t first = start / 64;
    const std::uint32_t last = (start + count - 1) / 64;
    for (std::uint32_t w = first; w <= last; ++w) {
      std::uint64_t mask = ~0ull;
      if (w == first) {
        mask &= ~0ull << (start % 64);
      }
      if (w == last) {
        mask &= ~0ull >> (63 - (start + count - 1) % 64);
      }
      if (value) {
        words_[w] |= mask;
      } else {
        words_[w] &= ~mask;
      }
    }
  }

  // Clears every bit set in `other` (same size).
  void AndNot(const Bitmap& other) {
    CEDAR_CHECK(other.size_ == size_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
  }

  // Number of set bits.
  std::uint32_t Count() const {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < words_.size(); ++w) {
      n += static_cast<std::uint32_t>(std::popcount(Word(w)));
    }
    return n;
  }

  // First run of >= count consecutive set bits at or after `from`, searching
  // forward. Returns the run start. Works a word at a time: `carry` is the
  // run reaching the top of the previous word, and runs inside a word come
  // from RunStarts.
  std::optional<std::uint32_t> FindRunForward(std::uint32_t from,
                                              std::uint32_t count) const {
    if (from >= size_) {
      return std::nullopt;
    }
    if (count == 0) {
      return from + 1;  // what a bit-at-a-time scan returns for an empty run
    }
    if (count > size_ - from) {
      return std::nullopt;
    }
    std::uint32_t carry = 0;
    for (std::uint32_t w = from / 64; w < words_.size(); ++w) {
      std::uint64_t x = Word(w);
      if (w == from / 64) {
        x &= ~0ull << (from % 64);
      }
      const std::uint32_t base = w * 64;
      if (x == ~0ull) {
        carry += 64;
        if (carry >= count) {
          return base + 64 - carry;
        }
        continue;
      }
      if (carry + static_cast<std::uint32_t>(std::countr_one(x)) >= count) {
        return base - carry;
      }
      if (const std::uint64_t starts = RunStarts(x, count); starts != 0) {
        return base + static_cast<std::uint32_t>(std::countr_zero(starts));
      }
      carry = static_cast<std::uint32_t>(std::countl_one(x));
    }
    return std::nullopt;
  }

  // First run of >= count consecutive set bits at or before `from`,
  // searching backward (run end <= from). Returns the run start: the
  // highest start whose run fits, as a bit-at-a-time downward scan finds it.
  std::optional<std::uint32_t> FindRunBackward(std::uint32_t from,
                                               std::uint32_t count) const {
    if (size_ == 0) {
      return std::nullopt;
    }
    const std::uint32_t top = std::min(from, size_ - 1);  // highest usable bit
    if (count == 0) {
      return top;
    }
    if (count > top + 1) {
      return std::nullopt;
    }
    // `carry` is the run reaching the bottom of the next-higher word.
    std::uint32_t carry = 0;
    for (std::uint32_t w = top / 64 + 1; w-- > 0;) {
      std::uint64_t x = Word(w);
      if (w == top / 64) {
        x &= ~0ull >> (63 - top % 64);
      }
      const std::uint32_t base = w * 64;
      if (x == ~0ull) {
        carry += 64;
        if (carry >= count) {
          return base + carry - count;
        }
        continue;
      }
      if (carry + static_cast<std::uint32_t>(std::countl_one(x)) >= count) {
        return base + 64 + carry - count;
      }
      if (const std::uint64_t starts = RunStarts(x, count); starts != 0) {
        return base + 63 - static_cast<std::uint32_t>(std::countl_zero(starts));
      }
      carry = static_cast<std::uint32_t>(std::countr_one(x));
    }
    return std::nullopt;
  }

  // Merges another bitmap with OR (used to fold the shadow free map into
  // the VAM at commit).
  void OrWith(const Bitmap& other) {
    CEDAR_CHECK(other.size_ == size_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  void Clear() { std::fill(words_.begin(), words_.end(), 0ull); }

  // Raw word access for serialization.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t>& mutable_words() { return words_; }

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  // Word `w` with any bits at or past size_ cleared: a caller may have put
  // garbage there through mutable_words(), and no search may report it.
  std::uint64_t Word(std::uint32_t w) const {
    const std::uint64_t word = words_[w];
    if (w + 1 == words_.size() && size_ % 64 != 0) {
      return word & ((1ull << (size_ % 64)) - 1);
    }
    return word;
  }

  // Bit i of the result is set iff bits [i, i + count) of `x` are all set.
  // A run must fit inside the word, so a count over 64 finds none.
  static std::uint64_t RunStarts(std::uint64_t x, std::uint32_t count) {
    if (count > 64) {
      return 0;
    }
    // Invariant: bit i of x is set iff bits [i, i + len) were all set.
    for (std::uint32_t len = 1; len < count && x != 0;) {
      const std::uint32_t step = std::min(len, count - len);
      x &= x >> step;
      len += step;
    }
    return x;
  }

  void TrimTail() {
    // Clear bits past size_ so Count() and == stay exact.
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ull << (size_ % 64)) - 1;
    }
  }

  std::uint32_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cedar

#endif  // CEDAR_UTIL_BITMAP_H_
