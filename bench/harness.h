// Shared harness for the per-figure/table bench binaries.
//
// Each bench binary regenerates one table or figure of the paper. The
// expensive full-system sweeps (Figures 9, 10, 11, 15 share the same runs)
// are memoized to an on-disk cache under bench_cache/, keyed by the full
// run configuration. Set READDUO_CACHE=0 to disable, READDUO_INSTR=<n>
// to change the per-core instruction budget (default 6,000,000). A
// READDUO_FAULTS plan that perturbs the simulation disables the cache for
// the whole process: perturbed results are never stored, and stale clean
// entries are never served in their place.
//
// Independent (scheme x workload) simulations are embarrassingly parallel
// — every Simulator owns its whole state — so sweep binaries batch their
// runs through run_schemes(), which fans the batch out over the
// READDUO_THREADS pool (see common/parallel.h). Cache files are written
// via tmp-file + rename, so concurrent runs (threads or whole processes)
// never observe a torn cache entry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "stats/counters.h"
#include "stats/edap.h"
#include "stats/json.h"
#include "trace/workload.h"

namespace rd::bench {

/// Everything a figure needs from one (workload, scheme) run.
struct RunResult {
  stats::RunSummary summary;
  stats::Counters counters;
  memsim::SimResult sim;
};

/// Per-core instruction budget: READDUO_INSTR or the 6M default. A set but
/// malformed READDUO_INSTR (e.g. "6e6") throws instead of silently running
/// the default budget.
std::uint64_t instruction_budget();

/// Name the running bench binary ("fig9", "table3", ...). Used to label
/// the READDUO_METRICS export; optional (default "bench").
void set_bench_name(const std::string& name);

namespace detail {

/// On-disk cache entry schema. Bump whenever RunResult (or anything it
/// embeds) gains, loses, or reorders a serialized field; load_cached
/// treats every other version as a miss instead of misparsing old bytes
/// into new fields.
inline constexpr int kCacheSchemaVersion = 3;

/// Serialize one cache entry (schema tag + every RunResult field +
/// metrics).
void write_cache_entry(std::ostream& out, const RunResult& r);

/// Strict inverse of write_cache_entry: false on wrong schema tag, short
/// read, malformed or non-finite fields, or trailing tokens. The caller
/// (load_cached) treats any failure behind a valid schema tag as a
/// corrupt entry: warn, count it, and recompute — never abort, never
/// trust partial bytes.
bool parse_cache_entry(std::istream& in, RunResult& out);

/// One run record exactly as it appears in the READDUO_METRICS "runs"
/// array. Exposed for the golden tests, which render in-process and
/// compare field-by-field against a committed file.
stats::JsonWriter run_record_json(const std::string& workload,
                                  std::uint64_t seed, bool cached,
                                  double wall_ms, const RunResult& r);

/// Render the full READDUO_METRICS document from the harness state
/// accumulated so far (runs recorded only while READDUO_METRICS is set).
/// Exposed for the golden tests.
std::string render_metrics_json();

}  // namespace detail

/// Run `kind` on `workload` (cached unless READDUO_CACHE=0).
RunResult run_scheme(readduo::SchemeKind kind, const trace::Workload& w,
                     const readduo::ReadDuoOptions& opts = {},
                     std::uint64_t seed = 42);

/// One (scheme, workload) run request for the batch API.
struct RunSpec {
  readduo::SchemeKind kind;
  trace::Workload workload;
  readduo::ReadDuoOptions opts = {};
  std::uint64_t seed = 42;
};

/// Execute every spec — concurrently over the READDUO_THREADS pool, since
/// each simulation is independent — and return the results in spec order.
/// Each run hits the same on-disk cache as run_scheme(), so a batch mixes
/// cached and fresh runs freely; results are identical to calling
/// run_scheme() serially for each spec.
std::vector<RunResult> run_schemes(const std::vector<RunSpec>& specs);

/// The paper's six evaluated schemes, in Figure 9 order.
const std::vector<readduo::SchemeKind>& paper_schemes();

/// Geometric mean of a vector of ratios (the "average" of Figures 9-15;
/// robust to the ratio scale).
double geomean(const std::vector<double>& xs);

}  // namespace rd::bench
