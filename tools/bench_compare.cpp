// bench_compare: regression gate over two BENCH_*.json summaries.
//
// Usage: bench_compare <baseline.json> <candidate.json> [max_regress_pct]
//
// Reads the "kernels_ns" section that run_all_benches.sh emits under
// READDUO_BENCH_JSON (one object per rewritten kernel, with nanosecond
// entries "ref"/"opt" plus a derived "speedup" ratio) and compares every
// nanosecond entry present in both files. A metric that got slower by
// more than max_regress_pct percent (default 10) is a regression; any
// regression — or a kernel metric that disappeared from the candidate —
// makes the tool exit nonzero, so run_all_benches.sh can use it as an
// opt-in perf gate (READDUO_BENCH_COMPARE=<baseline.json>; the current
// baseline is BENCH_pr14.json). BENCH_pr6.json predates the removal of
// the vectorized tier, and its "vec" entries report as MISSING.
//
// The summary is read with the repo's shared JSON reader (stats/json.h):
// every "kernels_ns.<kernel>.<metric>" path is one entry. Derived
// "speedup*" entries are ratios, not times, and are skipped.
//
// Exit codes: 0 = within budget, 1 = regression (or missing metric),
// 2 = usage / file / parse error.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "stats/json.h"

namespace {

// Kernel name -> metric name -> nanoseconds. std::map keeps the report
// ordering deterministic across runs and platforms.
using KernelTable = std::map<std::string, std::map<std::string, double>>;

bool load(const std::string& path, KernelTable* table) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_compare: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto fail = [&path](const std::string& err) {
    std::cerr << "bench_compare: " << path << ": " << err << "\n";
    return false;
  };
  rd::stats::FlatJson doc;
  std::string err;
  if (!rd::stats::flatten_json(buf.str(), doc, err)) return fail(err);
  const std::string prefix = "kernels_ns.";
  for (auto it = doc.lower_bound(prefix);
       it != doc.end() && it->first.starts_with(prefix); ++it) {
    const std::string entry = it->first.substr(prefix.size());
    const std::size_t dot = entry.find('.');
    double ns = 0.0;
    if (dot == std::string::npos ||
        !rd::stats::json_number(it->second, ns)) {
      return fail("\"" + it->first + "\" is not a <kernel>.<metric> number");
    }
    (*table)[entry.substr(0, dot)][entry.substr(dot + 1)] = ns;
  }
  if (table->empty()) return fail("no \"kernels_ns\" entries");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: bench_compare <baseline.json> <candidate.json>"
                 " [max_regress_pct]\n";
    return 2;
  }
  double max_pct = 10.0;
  if (argc == 4) {
    char* end = nullptr;
    max_pct = std::strtod(argv[3], &end);
    if (end == argv[3] || *end != '\0' || !(max_pct >= 0.0)) {
      std::cerr << "bench_compare: max_regress_pct must be a nonnegative"
                   " number, got '"
                << argv[3] << "'\n";
      return 2;
    }
  }

  KernelTable base, cand;
  if (!load(argv[1], &base) || !load(argv[2], &cand)) return 2;

  int regressions = 0;
  int compared = 0;
  for (const auto& [kernel, metrics] : base) {
    for (const auto& [metric, old_ns] : metrics) {
      if (metric.starts_with("speedup")) continue;  // derived ratio
      const auto kit = cand.find(kernel);
      if (kit == cand.end() || kit->second.count(metric) == 0) {
        std::cout << "MISSING  " << kernel << "." << metric
                  << " (in baseline, absent from candidate)\n";
        ++regressions;
        continue;
      }
      const double new_ns = kit->second.at(metric);
      ++compared;
      const double delta_pct =
          old_ns > 0.0 ? (new_ns - old_ns) / old_ns * 100.0 : 0.0;
      const bool regressed = delta_pct > max_pct;
      std::cout << (regressed ? "REGRESS  " : "ok       ") << kernel << "."
                << metric << "  " << old_ns << " -> " << new_ns << " ns  ("
                << (delta_pct >= 0.0 ? "+" : "") << delta_pct << "%)\n";
      if (regressed) ++regressions;
    }
  }
  // New kernels/metrics in the candidate are fine (a new kernel landing
  // is the expected way this file grows) — list them for the record.
  for (const auto& [kernel, metrics] : cand) {
    for (const auto& [metric, ns] : metrics) {
      if (metric.starts_with("speedup")) continue;
      const auto kit = base.find(kernel);
      if (kit == base.end() || kit->second.count(metric) == 0) {
        std::cout << "new      " << kernel << "." << metric << "  " << ns
                  << " ns (no baseline)\n";
      }
    }
  }
  if (compared == 0 && regressions == 0) {
    std::cerr << "bench_compare: nothing to compare (empty kernels_ns?)\n";
    return 2;
  }
  std::cout << "bench_compare: " << compared << " metric(s) compared, "
            << regressions << " regression(s), budget " << max_pct << "%\n";
  return regressions > 0 ? 1 : 0;
}
