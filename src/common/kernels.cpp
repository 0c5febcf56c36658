#include "common/kernels.h"

#include <cstring>
#include <mutex>

#include "common/check.h"
#include "common/env.h"

namespace rd {

KernelMode kernels_mode() {
  static std::once_flag once;
  static KernelMode mode = KernelMode::kOptimized;
  std::call_once(once, [] {
    const char* e = env_cstr("READDUO_KERNELS");
    if (e == nullptr) return;
    if (std::strcmp(e, "reference") == 0) {
      mode = KernelMode::kReference;
    } else if (std::strcmp(e, "optimized") == 0) {
      mode = KernelMode::kOptimized;
    } else {
      // Strict parse: a typo must not silently benchmark the wrong path.
      RD_CHECK_MSG(false, "READDUO_KERNELS must be 'reference' or "
                          "'optimized', got '" << e << "'");
    }
  });
  return mode;
}

SimdLevel simd_level() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdLevel::kSse42;
#endif
  return SimdLevel::kScalar;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse42: return "sse42";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "scalar";
}

}  // namespace rd
