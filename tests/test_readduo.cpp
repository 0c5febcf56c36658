// Tests for the ReadDuo policy layer: steady-state sampler, conversion
// controller, and the six schemes' decision logic.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "readduo/conversion.h"
#include "readduo/scheme_base.h"
#include "readduo/schemes.h"
#include "readduo/steady_state.h"

namespace rd::readduo {
namespace {

// ----------------------------------------------------- ScrubAgeSampler ---

TEST(ScrubAgeSampler, W0AgesUniformWithinInterval) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/0);
  EXPECT_DOUBLE_EQ(sampler.rewrite_probability(), 1.0);
  EXPECT_NEAR(sampler.mean_rewrite_interval(), 640.0, 1e-6);
  Rng rng(1);
  double mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double a = sampler.sample(rng);
    ASSERT_GE(a, 0.0);
    ASSERT_LT(a, 640.0);
    mx = std::max(mx, a);
    sum += a;
  }
  EXPECT_GT(mx, 600.0);
  EXPECT_NEAR(sum / n, 320.0, 10.0);
}

TEST(ScrubAgeSampler, RMetricW1HasModerateRewriteRate) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler sampler(model, 296, 8.0, /*nu=*/1);
  // Conditional hazards of a few percent per scrub.
  EXPECT_GT(sampler.rewrite_probability(), 0.001);
  EXPECT_LT(sampler.rewrite_probability(), 0.2);
  EXPECT_GT(sampler.mean_rewrite_interval(), 8.0);
}

TEST(ScrubAgeSampler, MMetricW1AlmostNeverRewrites) {
  const drift::ErrorModel model(drift::m_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/1);
  EXPECT_LT(sampler.rewrite_probability(), 0.01);
  // Ages routinely reach far beyond the scrub interval.
  Rng rng(2);
  double mx = 0.0;
  for (int i = 0; i < 5000; ++i) mx = std::max(mx, sampler.sample(rng));
  EXPECT_GT(mx, 10.0 * 640.0);
}

TEST(ScrubAgeSampler, Nu0MeanIntervalIsExactlyOneScrubPeriod) {
  // Analytic pin for the tail-truncation bookkeeping in the constructor:
  // with nu=0 every line fails its first post-scrub check, so q(1) = 1,
  // the survival loop stops after one step, and the residual term
  // (credited at survival.size() * interval) contributes zero mass.
  // mean_interval_ must equal the scrub interval *exactly* — any
  // off-by-one in the truncation shows up here as interval*2 or 0.
  const drift::ErrorModel model(drift::r_metric());
  for (const double interval : {1.0, 8.0, 640.0}) {
    ScrubAgeSampler sampler(model, 296, interval, /*nu=*/0);
    EXPECT_DOUBLE_EQ(sampler.rewrite_probability(), 1.0) << interval;
    EXPECT_DOUBLE_EQ(sampler.mean_rewrite_interval(), interval) << interval;
  }
}

TEST(ScrubAgeSampler, MeanIntervalNeverExceedsModelledHorizon) {
  // The residual survival mass is credited at the earliest un-modelled
  // scrub, so the estimate is conservative: it can never exceed the
  // modelled horizon even for metrics that almost never rewrite.
  const drift::ErrorModel model(drift::m_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/1);
  EXPECT_GT(sampler.mean_rewrite_interval(), 640.0);
  // The default max_age caps the modelled hazard at 1e6 seconds; the
  // residual is credited one interval past the last modelled scrub.
  EXPECT_LE(sampler.mean_rewrite_interval(), 1.0e6 + 640.0);
}

TEST(ScrubAgeSampler, StrongerThresholdRewritesLess) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler nu1(model, 296, 8.0, 1);
  ScrubAgeSampler nu3(model, 296, 8.0, 3);
  EXPECT_LT(nu3.rewrite_probability(), nu1.rewrite_probability());
}

// ------------------------------------------------ ConversionController ---

TEST(ConversionController, DisabledNeverConverts) {
  ConversionController::Config cfg;
  cfg.enabled = false;
  ConversionController c(cfg);
  for (int i = 0; i < 100; ++i) {
    c.record_read(true, false);
    EXPECT_FALSE(c.should_convert());
  }
  EXPECT_EQ(c.t_percent(), 0u);
}

TEST(ConversionController, ConvertsExactlyTPercent) {
  ConversionController::Config cfg;
  cfg.initial_t = 30;
  ConversionController c(cfg);
  int converted = 0;
  for (int i = 0; i < 1000; ++i) converted += c.should_convert() ? 1 : 0;
  EXPECT_EQ(converted, 300);
}

TEST(ConversionController, HighWatermarkBacksOffToFloor) {
  ConversionController::Config cfg;
  cfg.initial_t = 50;
  cfg.epoch_reads = 100;
  cfg.floor_t = 10;
  ConversionController c(cfg);
  // Ten epochs of 90% untracked reads with no benefit.
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 100; ++i) c.record_read(i % 10 != 0, false);
  }
  EXPECT_EQ(c.t_percent(), 10u);  // floored, still probing
}

TEST(ConversionController, BenefitRampsUp) {
  ConversionController::Config cfg;
  cfg.initial_t = 10;
  cfg.epoch_reads = 100;
  ConversionController c(cfg);
  // Epochs where conversions happen and converted lines are re-read a lot.
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 100; ++i) {
      const bool untracked = i % 4 == 0;
      c.record_read(untracked, !untracked && i % 2 == 0);
      if (untracked && c.should_convert()) c.record_conversion();
    }
  }
  EXPECT_GT(c.t_percent(), 10u);
}

TEST(ConversionController, NoBenefitDecays) {
  ConversionController::Config cfg;
  cfg.initial_t = 50;
  cfg.epoch_reads = 100;
  cfg.floor_t = 10;
  ConversionController c(cfg);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 100; ++i) {
      const bool untracked = i % 3 == 0;  // 33% < watermark
      c.record_read(untracked, false);    // no benefit ever
      if (untracked && c.should_convert()) c.record_conversion();
    }
  }
  EXPECT_EQ(c.t_percent(), 10u);
}

// ------------------------------------------------------------ Schemes ----

SchemeEnv test_env(std::uint64_t seed = 7) {
  SchemeEnv env;
  env.seed = seed;
  env.footprint_lines = 1u << 16;
  env.archive_lines = 1u << 14;
  env.zipf_s = 0.6;
  env.per_core_write_rate = 1e5;
  return env;
}

TEST(Schemes, FactoryNames) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;
  EXPECT_EQ(make_scheme(SchemeKind::kIdeal, env)->name(), "Ideal");
  EXPECT_EQ(make_scheme(SchemeKind::kTlc, env)->name(), "TLC");
  EXPECT_EQ(make_scheme(SchemeKind::kScrubbing, env)->name(), "Scrubbing");
  EXPECT_EQ(make_scheme(SchemeKind::kMMetric, env)->name(), "M-metric");
  EXPECT_EQ(make_scheme(SchemeKind::kHybrid, env)->name(), "Hybrid");
  EXPECT_EQ(make_scheme(SchemeKind::kLwt, env, opts)->name(), "LWT-4");
  opts.k = 2;
  opts.select_s = 3;
  EXPECT_EQ(make_scheme(SchemeKind::kSelect, env, opts)->name(),
            "Select-2:3");
}

// The scheme-name table behind every tool's --scheme flag.
TEST(SchemeNames, EveryKindReachableByCliName) {
  std::set<SchemeKind> reached;
  for (const auto& [name, kind] : kSchemeNames) {
    EXPECT_EQ(scheme_by_name(name), kind) << name;
    reached.insert(kind);
  }
  EXPECT_EQ(reached.size(), kSchemeNames.size()) << "a kind is listed twice";
  // kIdeal..kSelect are the enumerators in declaration order.
  for (int k = 0; k <= static_cast<int>(SchemeKind::kSelect); ++k) {
    EXPECT_EQ(reached.count(static_cast<SchemeKind>(k)), 1u) << k;
  }
}

TEST(SchemeNames, AgreeWithSchemeName) {
  for (const auto& [name, kind] : kSchemeNames) {
    if (kind == SchemeKind::kLwt || kind == SchemeKind::kSelect) {
      // Parametric: "LWT-4", "Select-4:2".
      EXPECT_EQ(scheme_name(kind).rfind(std::string(name) + "-", 0), 0u)
          << name;
    } else {
      EXPECT_EQ(scheme_name(kind), name);
    }
  }
}

TEST(SchemeNames, UnknownNameListsAcceptedNames) {
  try {
    scheme_by_name("Hybird");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheme 'Hybird'"), std::string::npos) << msg;
    for (const auto& [name, kind] : kSchemeNames) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos) << name;
    }
  }
  EXPECT_THROW(scheme_by_name(""), CheckFailure);
  EXPECT_THROW(scheme_by_name("hybrid"), CheckFailure);  // case-sensitive
  EXPECT_THROW(scheme_by_name("LWT-4"), CheckFailure);   // a display name
}

TEST(Schemes, DensitiesMatchPaper) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;
  EXPECT_DOUBLE_EQ(make_scheme(SchemeKind::kIdeal, env)->cells_per_line(),
                   296.0);
  EXPECT_DOUBLE_EQ(make_scheme(SchemeKind::kTlc, env)->cells_per_line(),
                   384.0);
  // LWT-4 adds 6 SLC flag bits.
  EXPECT_DOUBLE_EQ(
      make_scheme(SchemeKind::kLwt, env, opts)->cells_per_line(), 302.0);
  EXPECT_DOUBLE_EQ(
      make_scheme(SchemeKind::kSelect, env, opts)->cells_per_line(), 302.0);
}

TEST(Schemes, ScrubIntervalsMatchPaperSettings) {
  const SchemeEnv env = test_env();
  EXPECT_EQ(make_scheme(SchemeKind::kIdeal, env)->scrub_interval_seconds(),
            0.0);
  EXPECT_EQ(
      make_scheme(SchemeKind::kScrubbing, env)->scrub_interval_seconds(),
      8.0);
  EXPECT_EQ(make_scheme(SchemeKind::kMMetric, env)->scrub_interval_seconds(),
            640.0);
  EXPECT_EQ(make_scheme(SchemeKind::kHybrid, env)->scrub_interval_seconds(),
            640.0);
}

TEST(Schemes, IdealReadIs150ns) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kIdeal, env);
  const ReadOutcome r = s->on_read(123, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kRRead);
  EXPECT_EQ(r.latency.v, 150);
  EXPECT_FALSE(r.convert_to_write);
  EXPECT_EQ(s->counters().r_reads, 1u);
}

TEST(Schemes, MMetricReadIs450ns) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kMMetric, env);
  const ReadOutcome r = s->on_read(123, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kMRead);
  EXPECT_EQ(r.latency.v, 450);
}

TEST(Schemes, HybridYoungLinesUseRRead) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kHybrid, env);
  // Write then read immediately: no drift, fast path.
  s->on_write(5, Ns{0});
  const ReadOutcome r = s->on_read(5, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kRRead);
  EXPECT_EQ(r.latency.v, 150);
}

TEST(Schemes, LwtUntrackedArchiveReadsAreRMReads) {
  SchemeEnv env = test_env();
  env.archive_age_scale_s = 1e5;  // archive written ages ago
  ReadDuoOptions opts;
  opts.conversion = false;
  auto s = make_scheme(SchemeKind::kLwt, env, opts);
  int rm = 0;
  for (std::uint64_t line = 1u << 16; line < (1u << 16) + 200; ++line) {
    const ReadOutcome r = s->on_read(line, Ns{1000}, /*archive=*/true);
    rm += r.mode == ReadMode::kRMRead ? 1 : 0;
  }
  // Essentially all day-old archive lines are untracked.
  EXPECT_GT(rm, 190);
  EXPECT_EQ(s->counters().untracked_reads, s->counters().rm_reads);
}

TEST(Schemes, LwtFreshWritesEnableRRead) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kLwt, env);
  for (std::uint64_t line = 0; line < 100; ++line) {
    s->on_write(line, Ns{0});
    const ReadOutcome r = s->on_read(line, Ns{500}, false);
    EXPECT_EQ(r.mode, ReadMode::kRRead) << line;
  }
}

TEST(Schemes, LwtConversionEmitsWriteRequests) {
  SchemeEnv env = test_env();
  env.archive_age_scale_s = 1e5;
  ReadDuoOptions opts;
  opts.conversion = true;
  opts.controller.initial_t = 100;  // convert everything
  auto s = make_scheme(SchemeKind::kLwt, env, opts);
  int conversions = 0;
  for (std::uint64_t line = 1u << 16; line < (1u << 16) + 100; ++line) {
    const ReadOutcome r = s->on_read(line, Ns{1000}, true);
    if (r.convert_to_write) {
      ++conversions;
      s->on_converted_write(line, Ns{2000});
      // Next read of the same line is tracked and fast.
      const ReadOutcome again = s->on_read(line, Ns{3000}, true);
      EXPECT_EQ(again.mode, ReadMode::kRRead);
    }
  }
  EXPECT_GT(conversions, 90);
  EXPECT_EQ(s->counters().conversion_writes,
            static_cast<std::uint64_t>(conversions));
}

TEST(Schemes, SelectDifferentialWithinWindowFullBeyond) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;  // k=4, s=2 -> window = 2 * 160 s = 320 s
  auto s = make_scheme(SchemeKind::kSelect, env, opts);
  // First write: the line's sampled pre-window age decides; write again
  // immediately — within the window — must be differential.
  s->on_write(9, Ns{0});
  const WriteOutcome w2 = s->on_write(9, from_seconds(10.0));
  EXPECT_FALSE(w2.full_line);
  EXPECT_LT(w2.cells_written, 296u);
  EXPECT_GT(w2.cells_written, 0u);
  // Beyond the 320 s window: full-line write again.
  const WriteOutcome w3 = s->on_write(9, from_seconds(400.0));
  EXPECT_TRUE(w3.full_line);
  EXPECT_EQ(w3.cells_written, 296u);
}

TEST(Schemes, SelectConvertedWritesAreAlwaysFull) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kSelect, env);
  s->on_write(11, Ns{0});
  const WriteOutcome w = s->on_converted_write(11, from_seconds(1.0));
  EXPECT_TRUE(w.full_line);
  EXPECT_EQ(w.cells_written, 296u);
}

TEST(Schemes, SelectDiffWriteDoesNotResetTrackingClock) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;
  auto s = make_scheme(SchemeKind::kSelect, env, opts);
  s->on_write(13, Ns{0});                           // full at t=0
  s->on_write(13, from_seconds(100.0));             // diff at t=100
  const WriteOutcome w = s->on_write(13, from_seconds(350.0));
  // 350 s is beyond the 320 s window measured from the last FULL write
  // (t=0), even though a differential write happened at t=100.
  EXPECT_TRUE(w.full_line);
}

TEST(Schemes, EnergyAccountingIsConsistent) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kHybrid, env);
  s->on_write(1, Ns{0});
  s->on_read(1, Ns{1000}, false);
  const auto& c = s->counters();
  EXPECT_DOUBLE_EQ(
      c.dynamic_energy_pj(),
      c.read_energy_pj + c.write_energy_pj + c.scrub_energy_pj);
  EXPECT_DOUBLE_EQ(c.write_energy_pj, 296.0 * env.energy.cell_write.v);
  EXPECT_DOUBLE_EQ(c.read_energy_pj, env.energy.r_read.v);
}

TEST(Schemes, ScrubbingW0RewritesEveryRowLine) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kScrubbingW0, env);
  EXPECT_EQ(s->name(), "Scrubbing-W0");
  const ScrubOutcome out = s->on_scrub(Ns{0}, 16);
  EXPECT_EQ(out.rewrites, 16u);
  EXPECT_EQ(out.sense_latency.v, 150);  // still R-sensing
}

TEST(Schemes, ScrubOutcomesFollowPolicy) {
  const SchemeEnv env = test_env();
  // W=0 Hybrid rewrites every line of the row.
  auto hybrid = make_scheme(SchemeKind::kHybrid, env);
  const ScrubOutcome h = hybrid->on_scrub(Ns{0}, 16);
  EXPECT_EQ(h.rewrites, 16u);
  EXPECT_EQ(h.sense_latency.v, 450);  // M sense
  // Ideal never scrubs.
  auto ideal = make_scheme(SchemeKind::kIdeal, env);
  const ScrubOutcome i = ideal->on_scrub(Ns{0}, 16);
  EXPECT_EQ(i.rewrites, 0u);
  // W=1 M-metric scrub almost never rewrites.
  auto m = make_scheme(SchemeKind::kMMetric, env);
  unsigned rewrites = 0;
  for (int j = 0; j < 200; ++j) rewrites += m->on_scrub(Ns{0}, 16).rewrites;
  EXPECT_LT(rewrites, 40u);
}

TEST(Schemes, TlcWritesCost384Cells) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kTlc, env);
  const WriteOutcome w = s->on_write(3, Ns{0});
  EXPECT_EQ(w.cells_written, 384u);
  EXPECT_EQ(s->counters().cell_writes, 384u);
}

}  // namespace
}  // namespace rd::readduo
