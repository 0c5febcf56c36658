// Analytic drift-error probabilities and line error rates.
//
// This module reproduces the reliability analysis behind Tables III, IV and
// V: per-cell drift-error probability as a function of time since write,
// and binomial line-error-rate tails for an (E, S, W) efficient-scrubbing
// configuration.
//
// Performance note (DESIGN.md §10): a single log_cell_error_prob
// evaluation integrates a truncated-normal tail over the alpha
// distribution (7 Gauss-Legendre panels x 64 points), and the Table III-V
// grids, the scrub-age samplers, and the CellErrorTable all re-evaluate
// the same (state, t) points many times over. The optimized kernel
// therefore memoizes log_cell_error_prob keyed by (state, t_seconds) — the
// remaining model inputs (mu, sigma, mu_alpha, sigma_alpha, boundaries)
// are fixed per ErrorModel instance, so the key is complete. The memo is
// value-transparent: it stores exactly the double the direct evaluation
// produced, so results are bit-identical with the memo on or off
// (cross-checked by tests/test_kernels.cpp). A mutex guards the map; the
// model stays safe to share across the READDUO_THREADS grid workers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/kernels.h"
#include "common/thread_annotations.h"
#include "drift/metric.h"

namespace rd::drift {

/// DRAM reliability target: 25 FIT per Mbit translated to a 512-bit line
/// (Section III-A): 3.56e-15 failures per line-second.
inline constexpr double kLerDramPerLineSecond = 3.56e-15;

/// Line geometry: 64 B data = 256 MLC cells, plus 40 cells holding the
/// 80-bit BCH-8 parity. Every cell can take a drift error.
struct LineGeometry {
  unsigned data_cells = 256;
  unsigned ecc_cells = 40;
  unsigned total_cells() const { return data_cells + ecc_cells; }
};

/// Analytic drift-error model for one readout metric.
///
/// Copies of a model share one memo cache (they share the config that keys
/// it), so passing models by value stays cheap and warm.
class ErrorModel {
 public:
  /// Build the model for `config`. `mode` selects the evaluation kernel
  /// (kAuto: READDUO_KERNELS): kReference evaluates every probability
  /// directly; kOptimized memoizes per (state, t). Identical values in
  /// either mode.
  explicit ErrorModel(MetricConfig config, KernelMode mode = KernelMode::kAuto);

  /// The metric configuration this model evaluates.
  const MetricConfig& config() const { return config_; }

  /// The kernel implementation this instance runs (never kAuto).
  KernelMode kernel_mode() const { return mode_; }

  /// P(a cell programmed to state `state` at time 0 has drifted past its
  /// upper read boundary by time t). Monotone nondecreasing in t. The top
  /// state cannot drift into error (drift only increases the metric).
  /// Deterministic: a pure function of (config, state, t).
  double cell_error_prob(std::size_t state, double t_seconds) const;

  /// log of cell_error_prob, accurate for probabilities down to ~1e-200.
  /// Thread-safe; memoized per (state, t) in the optimized kernel.
  double log_cell_error_prob(std::size_t state, double t_seconds) const;

  /// Average over states under uniform data (log space).
  double log_avg_cell_error_prob(double t_seconds) const;
  /// exp of log_avg_cell_error_prob (0 when the log underflows).
  double avg_cell_error_prob(double t_seconds) const;

 private:
  /// The straight-line evaluation (panelled quadrature over the alpha
  /// distribution); the memo stores exactly its results.
  double log_cell_error_prob_direct(std::size_t state, double t_seconds) const;

  /// Memo shared by all copies of a model. Bounded: past kMaxEntries the
  /// cache stops growing and further misses evaluate directly (the paper
  /// grids need a few thousand entries at most).
  struct Memo {
    static constexpr std::size_t kMaxEntries = 1u << 15;
    Mutex memo_mu;
    std::map<std::pair<std::size_t, double>, double> values
        RD_GUARDED_BY(memo_mu);
  };

  MetricConfig config_;
  KernelMode mode_;
  std::shared_ptr<Memo> memo_;
};

/// Line-error-rate calculator for an (E, S) efficient-scrubbing setting.
class LerCalculator {
 public:
  LerCalculator(ErrorModel model, LineGeometry geometry = {});

  const ErrorModel& model() const { return model_; }
  const LineGeometry& geometry() const { return geometry_; }

  /// log P(line accumulates more than E drift errors within t seconds of
  /// its write) — condition (i) of the efficient-scrubbing definition.
  double log_ler(unsigned e, double t_seconds) const;
  double ler(unsigned e, double t_seconds) const;

  /// Condition (ii): P(fewer than W errors in the first S-second interval
  /// AND more than E - W errors in the second interval). Uses drift
  /// monotonicity: a cell erring in (S, 2S] has probability p(2S) - p(S).
  double log_prob_second_interval(unsigned e, unsigned w, double s) const;

  /// Condition (iii): same with the first two intervals clean and the
  /// overflow in the third.
  double log_prob_third_interval(unsigned e, unsigned w, double s) const;

  /// The paper's Table V uses an independence approximation: it multiplies
  /// P(clean through the first interval(s)) by P(more than E - W errors by
  /// the END of the window) without subtracting the error mass already
  /// excluded by the clean condition. More pessimistic than the exact
  /// computation; reproduced here because the paper's W=0 design decision
  /// for ReadDuo-Hybrid follows from these numbers.
  double log_prob_second_interval_indep(unsigned e, unsigned w,
                                        double s) const;
  double log_prob_third_interval_indep(unsigned e, unsigned w,
                                       double s) const;

  /// The DRAM-equivalent target for an interval of t seconds.
  static double ler_dram_target(double t_seconds) {
    return kLerDramPerLineSecond * t_seconds;
  }

 private:
  /// Shared kernel for (ii)/(iii): clean through t_clean, overflow in
  /// (t_clean, t_end].
  double log_prob_window(unsigned e, unsigned w, double t_clean,
                         double t_end) const;

  ErrorModel model_;
  LineGeometry geometry_;
};

/// Precomputed log-time interpolation of the average cell error
/// probability, for the simulator's per-read sampling (O(1) per lookup).
class CellErrorTable {
 public:
  /// Tabulates p(t) for t in [t_min, t_max] seconds on a log grid.
  CellErrorTable(const ErrorModel& model, double t_min = 1e-3,
                 double t_max = 1e9, std::size_t points = 2048);

  /// Interpolated average per-cell error probability at age t.
  double prob(double t_seconds) const;

 private:
  double log_t_min_, log_t_max_, step_;
  std::vector<double> probs_;  // linear-space probabilities on the grid
};

}  // namespace rd::drift
