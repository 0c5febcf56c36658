// Monte-Carlo MLC PCM cell model.
//
// A cell's physical configuration (amorphous thickness u_a) determines both
// its R-metric and M-metric. We model this by drawing a single programming
// percentile and a single drift-activation percentile per cell and mapping
// them through both metric configurations, so the two readouts of one cell
// are consistent: a cell whose R drifts hard also sits high in the (much
// slower) M drift distribution.
//
// Performance note (DESIGN.md §10): evaluating the drift law
// R(t) = R0 * (t / t0)^alpha costs one log10 per readout in log space, and
// that log10 depends only on the cell's age — which whole-line reads and
// Monte-Carlo sweeps share across hundreds of cells. The *_logt entry
// points below take the precomputed log10(age / t0) so batched callers
// (MlcLine::read_levels, pcm::mc_ler) hoist it; they are the same
// arithmetic as metric_at / read_level, so the results are bit-identical
// (the scalar paths are implemented on top of them).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "drift/metric.h"

namespace rd::pcm {

/// One programmed MLC cell. Value-type; the line owns an array of these.
class Cell {
 public:
  /// Program the cell to `level` at absolute time t_write (seconds). Draws
  /// a fresh programming percentile (truncated normal); the cell's drift
  /// percentile is process variation — drawn once on the first program and
  /// persistent across reprograms (a fast-drifting cell stays fast).
  /// Advances `rng` by the same number of draws regardless of level.
  void program(std::size_t level, double t_write_seconds, Rng& rng,
               const drift::MetricConfig& cfg);

  /// The level most recently programmed (not affected by set_stuck).
  std::size_t programmed_level() const { return level_; }
  /// Absolute time of the last program, seconds.
  double write_time() const { return t_write_; }

  /// The metric value (log10 units) at absolute time t under `cfg`.
  /// Before t_write + t0 the drift term is zero (the drift law starts at
  /// t0 after programming).
  double metric_at(double t_seconds, const drift::MetricConfig& cfg) const;

  /// The metric value given log_t_ratio = log10(age / t0) precomputed by a
  /// batched caller. Requires age > t0 (callers use metric_programmed()
  /// otherwise). metric_at(t, cfg) == metric_at_logt(log10((t - t_write)
  /// / t0), cfg) exactly — same arithmetic, hoisted log10.
  double metric_at_logt(double log_t_ratio,
                        const drift::MetricConfig& cfg) const;

  /// The metric value with no drift term (age <= t0): the as-programmed
  /// log10 metric.
  double metric_programmed(const drift::MetricConfig& cfg) const;

  /// Read out the level at time t by comparing against the reference
  /// boundaries of `cfg` (three references, Section II-A). Drift only
  /// increases the metric, so a misread returns a higher level.
  std::size_t read_level(double t_seconds,
                         const drift::MetricConfig& cfg) const;

  /// read_level with an additive metric disturbance (log10 units) applied
  /// before the reference comparison — the seam for injected sensing
  /// transients (READDUO_FAULTS "sense"). A stuck cell ignores the offset.
  std::size_t read_level(double t_seconds, const drift::MetricConfig& cfg,
                         double metric_offset) const;

  /// Batched read_level: `drifted` says whether age > t0 and, when true,
  /// `log_t_ratio` carries the caller's precomputed log10(age / t0).
  /// Bit-identical to read_level(t, cfg, metric_offset) for matching
  /// arguments; stuck cells return their pinned level regardless.
  std::size_t read_level_logt(bool drifted, double log_t_ratio,
                              const drift::MetricConfig& cfg,
                              double metric_offset) const;

  /// True if reading at time t under cfg would return the wrong level.
  bool drift_error(double t_seconds, const drift::MetricConfig& cfg) const {
    return read_level(t_seconds, cfg) != level_;
  }

  /// Endurance wear-out: pin the cell to a fixed level. Programming no
  /// longer changes what it reads (a hard error for ECP to patch).
  void set_stuck(std::size_t level);
  /// True once set_stuck has pinned this cell.
  bool is_stuck() const { return stuck_; }

 private:
  /// Locate metric value x among the three upper boundaries of `cfg` —
  /// the two-round reference comparison shared by every read path.
  static std::size_t level_from_metric(double x,
                                       const drift::MetricConfig& cfg);

  std::size_t level_ = 0;
  double t_write_ = 0.0;
  double z_program_ = 0.0;  ///< programming percentile, truncated normal
  double z_alpha_ = 0.0;    ///< drift-coefficient percentile, standard normal
  bool has_identity_ = false;
  bool stuck_ = false;
  std::size_t stuck_level_ = 0;
};

}  // namespace rd::pcm
