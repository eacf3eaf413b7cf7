#include "core/gstg_config.h"

#include "common/simd.h"

namespace gstg {

GsTgConfig GsTgConfig::resolved() const {
  reject_unknown_gstg_env();
  GsTgConfig r = *this;
  if (r.threads == 0) r.threads = worker_thread_count();
  r.temporal = temporal_mode_from_env(r.temporal);
  r.residency = residency_mode_from_env(r.residency);
  (void)simd_backend_from_env();
  r.validate();
  return r;
}

}  // namespace gstg
