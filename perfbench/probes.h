// Measurement helpers of the benchmark driver: host clocks, the exact
// state digest, per-layer tallies, and the forwarding Scheme proxy that
// times the readduo layer from outside the library.
//
// Nothing here changes what the library computes. Host clocks are read
// only by the benchmark; the simulated (virtual) time never sees them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <type_traits>
#include <string>
#include <vector>

#include "memsim/simulator.h"
#include "readduo/scheme.h"
#include "service/memory_service.h"
#include "stats/counters.h"
#include "stats/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// User + system CPU of this whole process (every thread), seconds.
inline double process_cpu_s() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over the exact bytes of every value fed in: doubles enter by
/// bit pattern, so two digests agree only if every field agrees at full
/// precision.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Digest& metrics(const rd::stats::SimMetrics& m) {
    for (const rd::stats::LatencyHistogram& h : m.latency) {
      for (std::uint64_t b : h.buckets()) u64(b);
      i64(h.sum()).i64(h.max());
    }
    u64(m.banks.size());
    for (const rd::stats::BankGauge& g : m.banks) {
      i64(g.busy_ns).u64(g.depth_samples).u64(g.depth_sum).u64(g.depth_max);
    }
    return *this;
  }
  Digest& counters(const rd::stats::Counters& c) {
    u64(c.r_reads).u64(c.m_reads).u64(c.rm_reads).u64(c.untracked_reads);
    u64(c.converted_reads).u64(c.demand_full_writes).u64(c.demand_diff_writes);
    u64(c.conversion_writes).u64(c.scrub_senses).u64(c.scrub_rewrites);
    u64(c.detected_uncorrectable).u64(c.silent_corruptions).u64(c.cell_writes);
    u64(c.injected_faults);
    return f64(c.read_energy_pj).f64(c.write_energy_pj).f64(c.scrub_energy_pj);
  }
  Digest& sim(const rd::memsim::SimResult& r) {
    i64(r.exec_time.v).u64(r.instructions).u64(r.reads_serviced);
    u64(r.writes_serviced).u64(r.scrubs_serviced).u64(r.write_cancellations);
    i64(r.read_latency_sum_ns).i64(r.bank_busy_ns).u64(r.scrub_backlog_end);
    u64(r.scrub_rewrites_dropped).u64(r.row_hits);
    return metrics(r.metrics);
  }
  /// The virtual-time part of a service snapshot. `rejected` and
  /// `seq_held` depend on host scheduling and are left out.
  Digest& service(const rd::service::ServiceStats& s) {
    u64(s.submitted).u64(s.admitted).u64(s.completed).u64(s.scrubs);
    u64(s.write_cancellations).u64(s.scrub_rewrites_dropped);
    i64(s.virtual_time.v);
    return metrics(s.metrics);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Per-layer tallies of one traced unit or probe: counts and host
/// seconds, all plain sums, so tallies of several units add up.
#define PERFBENCH_LAYER_FIELDS(X)                                        \
  X(readduo_calls) X(readduo_s) X(make_scheme_s)    \
  X(memsim_run_s) X(memsim_step_s) X(memsim_requests)                    \
  X(submit_calls) X(submit_rejected) X(backpressure_s) X(drain_s)        \
  X(construct_s) X(gen_requests) X(gen_s)                                \
  X(encode_s) X(send_s) X(recv_wait_s) X(frames_sent)         \
  X(retries) X(wire_bytes) X(wire_requests) X(hello_s)                   \
  X(chip_writes) X(chip_write_s) X(chip_reads) X(chip_read_s)            \
  X(chip_advance_s) X(chip_m_fallbacks) X(ecc_encodes) X(ecc_encode_s)   \
  X(ecc_decodes) X(ecc_decode_s) X(line_senses) X(line_sense_s)          \
  X(pool_task_s) X(pool_capacity_s) X(sampler_build_s)

struct Layers {
#define PERFBENCH_DECLARE(f) double f = 0.0;
  PERFBENCH_LAYER_FIELDS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

  /// this += k * o, field by field.
  void add(const Layers& o, double k = 1.0) {
#define PERFBENCH_ADD(f) f += k * o.f;
    PERFBENCH_LAYER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  }
};

/// Forwarding Scheme: times every policy call of the wrapped scheme and
/// mirrors its counters after each call, because Simulator reads
/// counters() of the scheme it was handed.
class TimedScheme final : public rd::readduo::Scheme {
 public:
  explicit TimedScheme(std::unique_ptr<rd::readduo::Scheme> inner)
      : inner_(std::move(inner)) {
    counters_ = inner_->counters();
  }

  const std::string& name() const override { return inner_->name(); }
  double cells_per_line() const override { return inner_->cells_per_line(); }
  double scrub_interval_seconds() const override {
    return inner_->scrub_interval_seconds();
  }
  rd::readduo::ReadOutcome on_read(std::uint64_t line, rd::Ns now,
                                   bool archive) override {
    return timed([&] { return inner_->on_read(line, now, archive); });
  }
  rd::readduo::WriteOutcome on_write(std::uint64_t line, rd::Ns now) override {
    return timed([&] { return inner_->on_write(line, now); });
  }
  rd::readduo::WriteOutcome on_converted_write(std::uint64_t line,
                                               rd::Ns now) override {
    return timed([&] { return inner_->on_converted_write(line, now); });
  }
  rd::readduo::ScrubOutcome on_scrub(rd::Ns now, unsigned lines) override {
    return timed([&] { return inner_->on_scrub(now, lines); });
  }
  rd::readduo::WriteOutcome on_scrub_rewrite(rd::Ns now) override {
    return timed([&] { return inner_->on_scrub_rewrite(now); });
  }

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  template <class F>
  std::invoke_result_t<F> timed(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    seconds_ += since(t0);
    ++calls_;
    counters_ = inner_->counters();
    return out;
  }

  std::unique_ptr<rd::readduo::Scheme> inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

}  // namespace perfbench
