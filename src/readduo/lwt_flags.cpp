#include "readduo/lwt_flags.h"

namespace rd::readduo {

LwtFlags::LwtFlags(unsigned k) : k_(static_cast<std::uint8_t>(k)) {
  RD_CHECK_MSG(k >= 2 && k <= 32 && (k & (k - 1)) == 0,
               "LWT-k requires k a power of two in [2, 32]");
  for (unsigned v = k; v > 1; v >>= 1) ++log2k_;
}

void LwtFlags::clear_between(unsigned from, unsigned to) {
  // Cyclic open range (from, to): labels strictly after `from` and
  // strictly before `to` in cyclic order. Empty when to == from + 1 (mod
  // k) or to == from.
  if (from == to) return;
  for (unsigned x = (from + 1) % k_; x != to; x = (x + 1) % k_) {
    vec_ &= ~(1u << x);
  }
}

void LwtFlags::on_write(unsigned s) {
  RD_CHECK(s < k_);
  // Bits between the previous last write and this one are stale leftovers
  // from the previous cycle; retire them before recording the new write.
  clear_between(ind_, s);
  vec_ |= 1u << s;
  ind_ = static_cast<std::uint8_t>(s);
}

void LwtFlags::on_scrub(bool rewrote) {
  // Clear the vector bits "before the last write": labels [0, ind - 1].
  // If ind == 0 (no write since the previous scrub), clear everything.
  if (ind_ == 0) {
    vec_ = 0;
  } else {
    for (unsigned x = 0; x < ind_; ++x) vec_ &= ~(1u << x);
  }
  // Bit 0 records whether this scrub refreshed the line; a new scrub cycle
  // starts, so the index resets.
  if (rewrote) {
    vec_ |= 1u;
  } else {
    vec_ &= ~1u;
  }
  ind_ = 0;
}

void LwtFlags::corrupt_vector_bit(unsigned bit) {
  RD_CHECK(bit < k_);
  vec_ ^= 1u << bit;
}

void LwtFlags::corrupt_index(unsigned index) {
  RD_CHECK(index < k_);
  ind_ = static_cast<std::uint8_t>(index);
}

bool LwtFlags::tracked_for_read(unsigned s) const {
  RD_CHECK(s < k_);
  if (vec_ == 0) return false;  // case (ii): nothing written within S
  if (ind_ != 0) return true;   // case (i): a write this scrub cycle
  // Case (iii): no write since the scrub (ind == 0). Bits with labels in
  // [1, s] can only come from the previous cycle, i.e. they are more than
  // S seconds old; discard them before deciding.
  std::uint32_t effective = vec_;
  for (unsigned x = 1; x <= s; ++x) effective &= ~(1u << x);
  return effective != 0;
}

}  // namespace rd::readduo
