// Last-Writes-Tracking flag protocol (Section III-C, Figure 5).
//
// Each memory line carries a k-bit vector-flag and a log2(k)-bit
// index-flag, stored as drift-free SLC in the ECC chip. Time is divided
// into sub-intervals of length S/k labelled 0..k-1 relative to the line's
// own scrub cycle (the line is scrubbed at the start of its label-0
// sub-interval). The protocol guarantees: tracked_for_read() returns true
// only if the line was written (or scrub-rewritten) within the last
// scrubbing interval S — the window in which R-sensing is reliable.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace rd::readduo {

/// Flag state of one line under ReadDuo-LWT-k.
class LwtFlags {
 public:
  /// Requires k a power of two in [2, 32] (log2 k index bits).
  explicit LwtFlags(unsigned k = 4);

  unsigned k() const { return k_; }
  std::uint32_t vector_flag() const { return vec_; }
  unsigned index_flag() const { return ind_; }

  /// A (full-line) write in the sub-interval labelled s.
  void on_write(unsigned s);

  /// The line's periodic scrub, which by construction happens at the start
  /// of sub-interval 0. `rewrote` says whether the scrub re-wrote the line.
  void on_scrub(bool rewrote);

  /// Decide the readout mode for a read in sub-interval s: true means
  /// R-sensing is safe (a write within the last S seconds is tracked);
  /// false means the controller must use M-sensing.
  bool tracked_for_read(unsigned s) const;

  /// Storage cost in SLC bits: k vector bits + log2(k) index bits.
  unsigned flag_bits() const { return k_ + log2k_; }

  /// Fault-injection seams (READDUO_FAULTS lwt-vec / lwt-ind): flip one
  /// vector bit / overwrite the index flag, as a disturbed SLC flag cell
  /// would. The protocol's worst case is a spuriously *set* stale bit —
  /// tracked_for_read()'s case (iii) discard logic is what keeps a
  /// corrupted flag from green-lighting an unsafe R-sense.
  void corrupt_vector_bit(unsigned bit);
  void corrupt_index(unsigned index);

 private:
  /// Clear vector bits with labels in the cyclic open range (from, to).
  void clear_between(unsigned from, unsigned to);

  // Packed into 8 bytes: one of these sits in every line-table slot, and
  // k <= 32 fits every field in a byte.
  std::uint32_t vec_ = 0;
  std::uint8_t k_;
  std::uint8_t log2k_ = 0;
  std::uint8_t ind_ = 0;
};

static_assert(sizeof(LwtFlags) == 8, "LwtFlags is packed into 8 bytes");

}  // namespace rd::readduo
