// Shared machinery for the concrete schemes: per-line state, initial-age
// sampling, drift-error sampling, and energy accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "drift/error_model.h"
#include "pcm/params.h"
#include "readduo/lwt_flags.h"
#include "readduo/scheme.h"
#include "readduo/steady_state.h"

namespace rd::faults {
class FaultEngine;
}  // namespace rd::faults

namespace rd::readduo {

/// Environment every scheme shares: device parameters plus the workload's
/// data-age behaviour (see DESIGN.md on initial-age modelling).
struct SchemeEnv {
  pcm::TimingParams timing;
  pcm::EnergyParams energy;
  drift::LineGeometry geometry;
  /// Workload geometry for rank-dependent write recency: each core's
  /// address slice is [base, base + footprint) working set followed by
  /// [base + footprint, base + footprint + archive_lines) archive.
  /// footprint_lines == 0 disables the rank model (mean_working_age_s is
  /// used instead).
  std::uint64_t footprint_lines = 0;
  std::uint64_t archive_lines = 0;
  /// Zipf exponent of line popularity (must be < 1; matches the trace).
  double zipf_s = 0.0;
  /// Total write rate of one core over its working set, writes/second.
  double per_core_write_rate = 0.0;
  /// Fallback mean age (seconds) of a working-set line's last write when
  /// footprint_lines == 0 (exponentially distributed).
  double mean_working_age_s = 0.05;
  /// Scale (seconds) of archive-line ages (exponential).
  double archive_age_scale_s = 20000.0;
  /// First-touched-by-a-write lines sample their age log-uniformly over
  /// [write_age_min_s, write_age_max_s]: write instants sample the line
  /// population by write renewal, which is much heavier-tailed than the
  /// read-activity bias (see DESIGN.md on initial-age modelling). This is
  /// what sets ReadDuo-Select's full-vs-differential write mix.
  double write_age_min_s = 1e-3;
  double write_age_max_s = 1e6;
  /// Cap on sampled pre-window ages (seconds).
  double max_age_s = 1.0e6;
  std::uint64_t seed = 1;
  /// Fault injector for this run; nullptr defers to the process-wide
  /// faults::engine() (which is itself nullptr when READDUO_FAULTS is
  /// off — the common, zero-overhead case).
  const faults::FaultEngine* faults = nullptr;
};

/// How a line is first touched; selects the initial-age population.
enum class FirstTouch { kRead, kWrite };

/// Per-line simulator-side state.
struct LineState {
  /// Absolute time (seconds, may be negative = before the window) of the
  /// last *full-line* write. Drift-error sampling keys off it: a
  /// ReadDuo-Select differential write leaves unmodified cells drifting
  /// from the older time, so it does not move this clock.
  double last_full_write_s = 0.0;
  /// LWT flag bits (only meaningful for LWT/Select schemes).
  LwtFlags flags{4};
  /// Set when the line was written back by R-M-read conversion; tracked
  /// reads hitting such lines are the controller's benefit signal.
  bool converted = false;
};

/// Base class implementing state management and stochastic drift
/// sampling; concrete schemes supply the policy.
class SchemeBase : public Scheme {
 public:
  SchemeBase(std::string name, SchemeEnv env);

  const std::string& name() const override { return name_; }

  /// Default full-line demand write used by most schemes.
  WriteOutcome on_write(std::uint64_t line, Ns now) override;
  WriteOutcome on_converted_write(std::uint64_t line, Ns now) override;

 protected:
  /// Fetch (creating and steady-state-initializing on first touch) the
  /// state of `line`. `archive` and `touch` select the initial-age
  /// population.
  LineState& state_of(std::uint64_t line, Ns now, bool archive,
                      FirstTouch touch = FirstTouch::kRead);

  /// Sample the number of R-metric drift errors a read of `line` at `now`
  /// sees, given the line's last full write — plus any injected sensing
  /// transients (READDUO_FAULTS "sense"; R-sensing only, M is the robust
  /// path by construction).
  unsigned sample_r_errors(std::uint64_t line, const LineState& st, Ns now);
  /// Same under the M-metric (never fault-injected).
  unsigned sample_m_errors(const LineState& st, Ns now);

  /// Record a full-line write of `line` (demand / conversion / rewrite).
  WriteOutcome full_write(LineState& st, Ns now);

  /// Initial age of a never-before-seen line; concrete schemes override to
  /// reflect their scrub hygiene (W = 0 bounds ages by S, etc.).
  virtual double sample_initial_age(std::uint64_t line, bool archive,
                                    FirstTouch touch, Rng& rng) = 0;

  /// Hook: initialize flags or other per-line metadata after the age was
  /// sampled (LWT replays the flag protocol).
  virtual void init_line(LineState& st, std::uint64_t line, Ns now,
                         bool archive);

  /// Workload-recency component of the initial age: exponential with a
  /// per-line rate from the line's Zipf popularity rank, so hot lines are
  /// recently written and the tail is old (see DESIGN.md).
  double sample_workload_age(std::uint64_t line, bool archive,
                             FirstTouch touch, Rng& rng) const;

  Rng& rng() { return rng_; }
  const SchemeEnv& env() const { return env_; }
  /// The resolved fault injector (nullptr when faults are off).
  const faults::FaultEngine* faults() const { return faults_; }

 public:
  /// Shared per-process singletons: the error tables and models are pure
  /// functions of the (fixed) metric configurations and cost ~1 s to
  /// build, so every scheme instance reuses them.
  static const drift::CellErrorTable& r_table();
  static const drift::CellErrorTable& m_table();
  static const drift::ErrorModel& r_model();
  static const drift::ErrorModel& m_model();

 protected:

  /// Account read energy by mode.
  void add_read_energy(ReadMode mode);

  /// Slot capacity of the line table (a power of two; tests pin growth
  /// with it).
  std::size_t line_slots() const { return lines_.capacity(); }

 private:
  /// Flat open-addressing map line -> LineState: linear probing over a
  /// power-of-two slot array, Fibonacci hashing, at most 3/4 full. A slot
  /// stores key = line + 1, so an all-zero slot is empty and fresh pages
  /// need no initialization; line UINT64_MAX is therefore not storable.
  /// The slots live in an anonymous mapping that is unmapped on growth,
  /// so a doubling returns the old array to the OS instead of stranding
  /// it in the heap. Never iterated: outputs cannot depend on its layout.
  class LineTable {
   public:
    LineTable() = default;
    ~LineTable();
    LineTable(const LineTable&) = delete;
    LineTable& operator=(const LineTable&) = delete;

    /// The state of `line`, or nullptr if it was never inserted.
    LineState* find(std::uint64_t line);
    /// Insert a line that find() just missed; returns its slot. May grow
    /// the table, which invalidates every LineState pointer/reference.
    LineState& insert(std::uint64_t line, const LineState& st);
    std::size_t capacity() const { return slots_ != nullptr ? mask_ + 1 : 0; }

   private:
    struct Slot {
      std::uint64_t key;  ///< line + 1; 0 = empty
      LineState state;
    };
    std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                      shift_);
    }
    void grow();

    static constexpr unsigned kInitialLog2 = 10;
    Slot* slots_ = nullptr;
    std::size_t mask_ = 0;  ///< capacity - 1 once allocated
    unsigned shift_ = 64;   ///< 64 - log2(capacity)
    std::size_t size_ = 0;
  };

  std::string name_;
  SchemeEnv env_;
  /// env_.faults, or the process engine when that is null; resolved once
  /// at construction so the hot path is a plain pointer test.
  const faults::FaultEngine* faults_;
  Rng rng_;
  /// Per-line state, created on first touch by state_of().
  LineTable lines_;
};

}  // namespace rd::readduo
