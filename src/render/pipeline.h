// Baseline tile-based 3D-GS rendering pipeline (paper Fig. 1):
//   preprocessing (features + culling + tile identification)
//   -> tile-wise sorting -> tile-wise rasterization.
// This is the reference against which GS-TG is compared, and the source of
// the profiling data behind Figs. 3, 5, 7 and Table I.
#pragma once

#include "camera/camera.h"
#include "gaussian/cloud.h"
#include "render/framebuffer.h"
#include "render/types.h"

namespace gstg {

/// Output of a full render: image, per-stage wall-clock times, counters.
struct RenderResult {
  Framebuffer image;
  StageTimes times;
  RenderCounters counters;
};

/// Runs the full baseline pipeline. Deterministic for a fixed input
/// regardless of thread count.
RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& config);

}  // namespace gstg
