#include "pcm/mc_ler.h"

#include <cmath>
#include <vector>

#include "common/kernels.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace rd::pcm {

namespace {

// Lines per shard. Fixed (never derived from the thread count) so the
// shard decomposition — and with it every Rng(seed, shard) stream — is
// identical no matter how many threads execute it.
constexpr std::uint64_t kShardLines = 8192;

}  // namespace

double McLerResult::stderr_() const {
  if (lines == 0) return 0.0;
  const double p = ler();
  return std::sqrt(p * (1.0 - p) / static_cast<double>(lines));
}

McLerResult mc_ler(const drift::MetricConfig& config,
                   const drift::LineGeometry& geometry,
                   unsigned e, double t_seconds, std::uint64_t lines,
                   std::uint64_t seed, KernelMode mode) {
  McLerResult result;
  result.lines = lines;
  if (lines == 0) return result;
  const unsigned cells = geometry.total_cells();
  const std::uint64_t shards = (lines + kShardLines - 1) / kShardLines;
  std::vector<std::uint64_t> shard_failures(shards, 0);
  // Every sampled cell is written at t = 0 and read at the same
  // t_seconds, so the drift law's log10(t / t0) is one value for the
  // whole population: the optimized kernel hoists it out of the
  // cells-per-line loop (the RNG draw sequence is untouched, so the
  // count is bit-identical to the per-cell reference path — enforced by
  // tests/test_kernels.cpp and the THREADS sweep).
  const KernelMode m = resolve_kernel_mode(mode);
  const bool optimized = m != KernelMode::kReference;
  const bool drifted = t_seconds > config.t0_seconds;
  const double log_t_ratio =
      drifted ? std::log10(t_seconds / config.t0_seconds) : 0.0;
  parallel_for_shards(shards, [&](std::size_t shard) {
    Rng rng(seed, shard);
    const std::uint64_t begin = static_cast<std::uint64_t>(shard) * kShardLines;
    const std::uint64_t end = std::min(lines, begin + kShardLines);
    std::uint64_t failures = 0;
    for (std::uint64_t l = begin; l < end; ++l) {
      unsigned errors = 0;
      for (unsigned c = 0; c < cells && errors <= e; ++c) {
        Cell cell;
        cell.program(rng.uniform_below(drift::kNumStates), 0.0, rng, config);
        const bool err =
            optimized
                ? cell.read_level_logt(drifted, log_t_ratio, config, 0.0) !=
                      cell.programmed_level()
                : cell.drift_error(t_seconds, config);
        errors += err ? 1 : 0;
      }
      if (errors > e) ++failures;
    }
    shard_failures[shard] = failures;
  });
  // Ordered reduction (uint64 addition is associative anyway, but keeping
  // the shard order makes the contract obvious and extension-proof).
  for (std::uint64_t f : shard_failures) result.failures += f;
  return result;
}

}  // namespace rd::pcm
