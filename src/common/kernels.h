// Kernel implementation selection: optimized vs reference.
//
// Every hot-path kernel rewritten for speed (BCH syndromes/Chien, drift
// error-model memoization, batched MLC line reads) keeps its original
// straight-line implementation compiled in and selectable, so the test
// suite — and any suspicious user — can run the whole system on the
// reference path and demand bit-identical outputs. Selection happens at
// two levels:
//
//   * process-wide: READDUO_KERNELS=reference|optimized (default
//     optimized), read once through the audited env gateway;
//   * per-object: constructors and batch entry points take an explicit
//     KernelMode, where kAuto defers to the process-wide setting.
//
// The contract is strict value equality across both tiers: identical
// syndromes, decode flags, corrected words, levels, and counts for every
// input (enforced by tests/test_kernels.cpp and the golden files under
// tests/golden/, which the reference-kernel lane of run_test_sweep.sh
// replays).
#pragma once

namespace rd {

/// Which implementation of a rewritten kernel to run.
enum class KernelMode {
  kAuto,       ///< defer to READDUO_KERNELS (default: optimized)
  kReference,  ///< original straight-line implementation
  kOptimized,  ///< table-driven / memoized / batched implementation
};

/// The process-wide kernel mode from READDUO_KERNELS ("reference" or
/// "optimized"; unset means optimized). Read once per process
/// (thread-safe); a set-but-unrecognized value throws instead of silently
/// running the default. Never returns kAuto.
KernelMode kernels_mode();

/// Collapse kAuto to the process-wide mode; returns `mode` otherwise.
inline KernelMode resolve_kernel_mode(KernelMode mode) {
  return mode == KernelMode::kAuto ? kernels_mode() : mode;
}

/// Host SIMD capability, widest first. Reported as a host fact next to
/// benchmark results; no kernel dispatches on it.
enum class SimdLevel {
  kScalar,  ///< neither of the below (or not an x86 host)
  kSse42,   ///< SSE4.2
  kAvx2,    ///< AVX2
};

/// The widest SIMD level the host CPU reports.
SimdLevel simd_level();

/// Human-readable name of a SIMD level ("scalar" / "sse42" / "avx2").
const char* simd_level_name(SimdLevel level);

}  // namespace rd
