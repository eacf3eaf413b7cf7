#include "common/simd.h"

#include "common/spelling_table.h"

namespace gstg {

namespace {

constexpr Spelling<SimdBackend> kSimdSpellings[] = {
    {"auto", SimdBackend::kAuto},
    {"scalar", SimdBackend::kScalar},
    {"sse4", SimdBackend::kSse4},
    {"avx2", SimdBackend::kAvx2},
    {"neon", SimdBackend::kNeon},
};

}  // namespace

const char* to_string(SimdBackend backend) { return spelling_of(kSimdSpellings, backend); }

SimdBackend simd_backend_from_string(const char* name) {
  if (name == nullptr || *name == '\0') return SimdBackend::kAuto;
  return parse_spelling("SIMD backend", kSimdSpellings, name);
}

SimdBackend simd_backend_from_env() {
  return env_spelling("GSTG_SIMD", kSimdSpellings, SimdBackend::kAuto);
}

bool cpu_supports(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kAuto:
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kSse4:
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case SimdBackend::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
      // __builtin_cpu_supports folds in the xsave/OS-state check for AVX.
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(__aarch64__) || defined(_M_ARM64)
      return true;  // NEON is architecturally guaranteed on AArch64
#else
      return false;
#endif
  }
  return false;
}

}  // namespace gstg
