// MLC PCM memory-line model: 296 two-bit cells holding a 592-bit BCH
// codeword (512 data + 80 parity), with full and differential writes and
// metric-based readout. This is the device-level ground truth the
// Monte-Carlo reliability experiments run on.
//
// Performance note (DESIGN.md §10): whole-line readout is a hot kernel
// (every chip read, scrub pass, and Figure 6 sweep senses all 296 cells at
// one instant). The batched read_levels path computes log10(age / t0)
// once per distinct write time instead of once per cell — after a full
// write that is one log10 for the whole line; after differential writes,
// one per run of same-age cells. Selectable vs the straight per-cell
// reference via KernelMode; outputs are bit-identical (the batch calls the
// same Cell arithmetic with the hoisted operand).
//
// read() and count_drift_errors() sense into a per-line scratch buffer, so
// those const paths write internal state; that is safe because a line is
// only ever read from the thread that owns it (shards own disjoint
// chips/lines — see common/parallel.h users).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "pcm/cell.h"

namespace rd::pcm {

/// Map a 2-bit Gray value to its storage level (inverse of kLevelData).
std::size_t data_to_level(std::uint8_t two_bits);

/// An array of MLC cells holding one memory line (codeword).
///
/// Bit i of the codeword lives in cell i/2; even bits are the high bit of
/// the cell's Gray pair. The line remembers which metric configuration it
/// was programmed against for R readout; M readout maps the same cells
/// through the M-metric config (see Cell).
class MlcLine {
 public:
  /// A line holding `nbits` bits (must be even).
  explicit MlcLine(std::size_t nbits);

  std::size_t num_bits() const { return 2 * cells_.size(); }
  std::size_t num_cells() const { return cells_.size(); }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Mutable access for fault injection (stuck-at cells).
  Cell& cell_at(std::size_t i);

  /// Program every cell with the given codeword at time t (seconds).
  void write_full(const BitVec& bits, double t_seconds, Rng& rng,
                  const drift::MetricConfig& cfg);

  /// Program only the cells whose stored level differs from the target.
  /// Untouched cells keep their old write time and keep drifting — the
  /// hazard of naive differential write shown in Figure 6. Returns the
  /// number of cells programmed.
  std::size_t write_differential(const BitVec& bits, double t_seconds,
                                 Rng& rng, const drift::MetricConfig& cfg);

  /// Reprogram (to their stored level) exactly the cells that currently
  /// misread at time t — the naive differential scrub of Figure 6, which
  /// fixes today's drift errors but leaves the near-boundary survivor
  /// population in place. Returns the number of cells reprogrammed.
  std::size_t refresh_drifted(double t_seconds, Rng& rng,
                              const drift::MetricConfig& cfg);

  /// Sense all cells at time t under `cfg` and return the bit image.
  /// `mode` selects the batched or per-cell kernel (kAuto:
  /// READDUO_KERNELS); the image is bit-identical either way.
  BitVec read(double t_seconds, const drift::MetricConfig& cfg,
              KernelMode mode = KernelMode::kAuto) const;

  /// Sense all cells at time t under `cfg` into `out_levels` (size
  /// num_cells). `offsets`, when non-null, applies per-cell additive
  /// metric disturbances (the READDUO_FAULTS "sense" seam; stuck cells
  /// ignore theirs). This is the batched kernel behind read() and the
  /// chip's sense path: one log10 per distinct cell age, not per cell.
  /// Every kernel mode runs the batched loop here — the per-cell
  /// reference split lives in read()/count_drift_errors().
  void read_levels(double t_seconds, const drift::MetricConfig& cfg,
                   const double* offsets, std::uint8_t* out_levels) const;

  /// Number of cells that would be misread at time t under `cfg`.
  /// Dispatches like read().
  std::size_t count_drift_errors(double t_seconds,
                                 const drift::MetricConfig& cfg,
                                 KernelMode mode = KernelMode::kAuto) const;

  /// The codeword most recently programmed (for test oracles).
  const BitVec& programmed_bits() const { return programmed_; }

 private:
  std::size_t target_level(const BitVec& bits, std::size_t cell) const;

  std::vector<Cell> cells_;
  BitVec programmed_;

  /// Scratch levels for read()/count_drift_errors() (hence mutable).
  mutable std::vector<std::uint8_t> levels_tmp_;
};

}  // namespace rd::pcm
