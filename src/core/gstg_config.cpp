#include "core/gstg_config.h"

#include "common/simd.h"
#include "render/simd_kernels.h"

namespace gstg {

GsTgConfig GsTgConfig::resolved() const {
  reject_unknown_gstg_env();
  GsTgConfig r = *this;
  if (r.threads == 0) r.threads = worker_thread_count();
  r.temporal = temporal_mode_from_env(r.temporal);
  // Parsed even when simd names a backend: a malformed GSTG_SIMD always throws.
  (void)simd_backend_from_env();
  r.simd = resolve_simd_backend(r.simd);
  r.validate();
  return r;
}

}  // namespace gstg
