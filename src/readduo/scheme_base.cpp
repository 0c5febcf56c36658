#include "readduo/scheme_base.h"

#include <sys/mman.h>

#include <cmath>
#include <new>

#include "common/check.h"
#include "config/loader.h"
#include "faults/injector.h"

namespace rd::readduo {

SchemeBase::SchemeBase(std::string name, SchemeEnv env)
    : name_(std::move(name)),
      env_(env),
      faults_(env.faults != nullptr ? env.faults : faults::engine()),
      rng_(env.seed) {}

// The shared models latch the process-wide device (READDUO_DEVICE /
// --device) on first use; under the builtin device the configurations are
// bit-identical to the old hard-coded drift::r_metric()/m_metric().
const drift::ErrorModel& SchemeBase::r_model() {
  static const drift::ErrorModel model(config::active_device().r_metric);
  return model;
}

const drift::ErrorModel& SchemeBase::m_model() {
  static const drift::ErrorModel model(config::active_device().m_metric);
  return model;
}

const drift::CellErrorTable& SchemeBase::r_table() {
  static const drift::CellErrorTable table(r_model());
  return table;
}

const drift::CellErrorTable& SchemeBase::m_table() {
  static const drift::CellErrorTable table(m_model());
  return table;
}

double SchemeBase::sample_workload_age(std::uint64_t line, bool archive,
                                       FirstTouch touch, Rng& rng) const {
  double u = rng.uniform();
  while (u <= 0.0) u = rng.uniform();
  if (archive) {
    return std::min(-env_.archive_age_scale_s * std::log(u), env_.max_age_s);
  }

  if (touch == FirstTouch::kWrite) {
    // Write instants sample lines by write renewal: log-uniform ages over
    // many decades (streaming writes, cold allocations, periodic sweeps).
    const double lo = std::log(env_.write_age_min_s);
    const double hi = std::log(env_.write_age_max_s);
    return std::exp(lo + rng.uniform() * (hi - lo));
  }

  double mean = env_.mean_working_age_s;
  if (env_.footprint_lines > 0 && env_.per_core_write_rate > 0.0) {
    // Read instants are biased toward currently-active data: exponential
    // age with the per-line write rate from the line's Zipf popularity
    // rank (continuous approximation; requires zipf_s < 1).
    const double f = static_cast<double>(env_.footprint_lines);
    const std::uint64_t slice = env_.footprint_lines + env_.archive_lines;
    const double rank = static_cast<double>(line % slice) + 1.0;
    const double s = env_.zipf_s;
    const double weight =
        s > 0.0 ? (1.0 - s) * std::pow(rank, -s) / std::pow(f, 1.0 - s)
                : 1.0 / f;
    const double rate = env_.per_core_write_rate * weight;
    mean = rate > 0.0 ? 1.0 / rate : env_.max_age_s;
  }
  return std::min(-mean * std::log(u), env_.max_age_s);
}

void SchemeBase::init_line(LineState&, std::uint64_t, Ns, bool) {}

SchemeBase::LineTable::~LineTable() {
  if (slots_ != nullptr) munmap(slots_, capacity() * sizeof(Slot));
}

LineState* SchemeBase::LineTable::find(std::uint64_t line) {
  RD_CHECK(line != UINT64_MAX);
  if (slots_ == nullptr) return nullptr;
  const std::uint64_t key = line + 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    if (slots_[i].key == key) return &slots_[i].state;
    if (slots_[i].key == 0) return nullptr;
  }
}

LineState& SchemeBase::LineTable::insert(std::uint64_t line,
                                         const LineState& st) {
  if (4 * (size_ + 1) > 3 * capacity()) grow();
  const std::uint64_t key = line + 1;
  std::size_t i = home(key);
  while (slots_[i].key != 0) i = (i + 1) & mask_;
  ++size_;
  return (new (&slots_[i]) Slot{key, st})->state;
}

void SchemeBase::LineTable::grow() {
  Slot* const old = slots_;
  const std::size_t old_cap = capacity();
  const unsigned log2 = old == nullptr ? kInitialLog2 : (64 - shift_) + 1;
  const std::size_t cap = std::size_t{1} << log2;
  // Anonymous pages arrive zeroed, i.e. every slot empty.
  void* mem = mmap(nullptr, cap * sizeof(Slot), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RD_CHECK_MSG(mem != MAP_FAILED, "line table: cannot map "
                                      << cap * sizeof(Slot) << " bytes");
  slots_ = static_cast<Slot*>(mem);
  mask_ = cap - 1;
  shift_ = 64 - log2;
  for (std::size_t j = 0; j < old_cap; ++j) {
    if (old[j].key == 0) continue;
    std::size_t i = home(old[j].key);
    while (slots_[i].key != 0) i = (i + 1) & mask_;
    new (&slots_[i]) Slot(old[j]);
  }
  if (old != nullptr) munmap(old, old_cap * sizeof(Slot));
}

LineState& SchemeBase::state_of(std::uint64_t line, Ns now, bool archive,
                                FirstTouch touch) {
  if (LineState* st = lines_.find(line)) return *st;
  // The age is drawn before the insert, so the RNG stream is the same
  // whatever the table does.
  LineState st;
  st.last_full_write_s =
      now.seconds() - sample_initial_age(line, archive, touch, rng_);
  LineState& slot = lines_.insert(line, st);
  init_line(slot, line, now, archive);
  return slot;
}

unsigned SchemeBase::sample_r_errors(std::uint64_t line,
                                     const LineState& st, Ns now) {
  const double age = now.seconds() - st.last_full_write_s;
  const double p = r_table().prob(age);
  unsigned errors = rng_.binomial(env_.geometry.total_cells(), p);
  if (faults_ != nullptr) {
    const unsigned extra =
        faults_->extra_r_errors(line, now, env_.geometry.total_cells());
    if (extra > 0) {
      counters_.injected_faults += extra;
      errors = std::min(errors + extra, env_.geometry.total_cells());
    }
  }
  return errors;
}

unsigned SchemeBase::sample_m_errors(const LineState& st, Ns now) {
  const double age = now.seconds() - st.last_full_write_s;
  const double p = m_table().prob(age);
  return rng_.binomial(env_.geometry.total_cells(), p);
}

WriteOutcome SchemeBase::full_write(LineState& st, Ns now) {
  st.last_full_write_s = now.seconds();
  WriteOutcome w;
  w.latency = env_.timing.write;
  w.cells_written = env_.geometry.total_cells();
  w.full_line = true;
  counters_.cell_writes += w.cells_written;
  return w;
}

WriteOutcome SchemeBase::on_write(std::uint64_t line, Ns now) {
  LineState& st = state_of(line, now, /*archive=*/false, FirstTouch::kWrite);
  WriteOutcome w = full_write(st, now);
  ++counters_.demand_full_writes;
  counters_.write_energy_pj +=
      env_.energy.cell_write.v * static_cast<double>(w.cells_written);
  return w;
}

WriteOutcome SchemeBase::on_converted_write(std::uint64_t line, Ns now) {
  LineState& st = state_of(line, now, /*archive=*/false);
  WriteOutcome w = full_write(st, now);
  ++counters_.conversion_writes;
  counters_.write_energy_pj +=
      env_.energy.cell_write.v * static_cast<double>(w.cells_written);
  return w;
}

void SchemeBase::add_read_energy(ReadMode mode) {
  switch (mode) {
    case ReadMode::kRRead:
      counters_.read_energy_pj += env_.energy.r_read.v;
      break;
    case ReadMode::kMRead:
      counters_.read_energy_pj += env_.energy.m_read.v;
      break;
    case ReadMode::kRMRead:
      counters_.read_energy_pj +=
          env_.energy.r_read.v + env_.energy.m_read.v;
      break;
  }
}

}  // namespace rd::readduo
