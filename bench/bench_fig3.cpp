// Figure 3: motivation — the state-of-the-art mitigation schemes each
// sacrifice something: Scrubbing and M-metric lose performance, TLC loses
// storage density. (ReadDuo's point is refusing that trade.)
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig3");
  std::printf("== Figure 3: prior schemes' performance degradation and "
              "density penalty (vs drift-free Ideal)\n\n");

  const readduo::SchemeKind kinds[] = {
      readduo::SchemeKind::kScrubbing,
      readduo::SchemeKind::kScrubbingW0,
      readduo::SchemeKind::kMMetric,
      readduo::SchemeKind::kTlc,
  };
  constexpr std::size_t kN = 4;

  // Density is a per-scheme constant; every run reports it in its summary.
  std::vector<std::vector<double>> slow(kN);
  double ideal_cells = 0.0;
  double cells[kN] = {};
  for (const auto& w : trace::spec2006_workloads()) {
    const RunResult ideal = run_scheme(readduo::SchemeKind::kIdeal, w);
    ideal_cells = ideal.summary.cells_per_line;
    for (std::size_t i = 0; i < kN; ++i) {
      const RunResult r = run_scheme(kinds[i], w);
      slow[i].push_back(static_cast<double>(r.summary.exec_time.v) /
                        static_cast<double>(ideal.summary.exec_time.v));
      cells[i] = r.summary.cells_per_line;
    }
  }

  stats::Table t({"Scheme", "Perf degradation", "Density penalty",
                  "Trade-off"});
  const char* notes[] = {
      "wastes bandwidth on 8 s scrubs (W=1: not DRAM-reliable)",
      "W=0 rewrite-at-every-scrub: the reliable R-only setting",
      "every read pays 450 ns",
      "needs 384 cells per 64 B line",
  };
  for (std::size_t i = 0; i < kN; ++i) {
    t.add_row({readduo::scheme_name(kinds[i]),
               stats::fmt("%+.1f%%", 100.0 * (geomean(slow[i]) - 1.0)),
               stats::fmt("%+.1f%%", 100.0 * (cells[i] / ideal_cells - 1.0)),
               notes[i]});
  }
  t.print();
  std::printf("\nPaper's qualitative claim (Table VI): Scrubbing and "
              "M-metric lose performance/energy, TLC loses density; "
              "ReadDuo aims for '+' on all four axes.\n");
  return 0;
}
