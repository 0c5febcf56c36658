// Fixed-size dynamic bit vector used for memory-line payloads and codewords.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace rd {

/// A vector of bits with word-level XOR and popcount. Size is fixed at
/// construction (memory lines / codewords never resize).
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  std::size_t size() const { return nbits_; }

  bool get(std::size_t i) const {
    RD_CHECK(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool v) {
    RD_CHECK(i < nbits_);
    const std::uint64_t mask = 1ull << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) {
    RD_CHECK(i < nbits_);
    words_[i >> 6] ^= 1ull << (i & 63);
  }

  /// XOR with another vector of identical size.
  BitVec& operator^=(const BitVec& o) {
    RD_CHECK(nbits_ == o.nbits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
    return *this;
  }

  friend BitVec operator^(BitVec a, const BitVec& b) {
    a ^= b;
    return a;
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool any() const {
    for (std::uint64_t w : words_) if (w != 0) return true;
    return false;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.nbits_ == b.nbits_ && a.words_ == b.words_;
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rd
