// Persistent GS-TG renderer: the servable, allocation-free steady-state
// form of the one-shot pipeline in core/pipeline.h.
//
// A FrameContext owns every per-frame product and scratch buffer (projected
// splats, group CSR lists, tile bitmasks, sort keys, blending buffers,
// framebuffer). Rendering through a reused context produces bit-identical
// images to independent render_gstg() calls while allocating nothing once
// the buffers have warmed up to the workload — the execution model a
// multi-user rendering service needs (persistent device buffers in the GPU
// rasterizers this mirrors).
//
// render_batch() adds view-level parallelism on top of the existing
// intra-frame threading: a small pool of workers, each with its own
// FrameContext, drains the camera list. Frames are independent, so the
// batch output is bit-identical to the sequential loop.
#pragma once

#include <span>
#include <vector>

#include "camera/camera.h"
#include "common/timer.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "gaussian/cloud.h"
#include "gaussian/compressed.h"
#include "render/preprocess.h"

namespace gstg {

/// All per-frame state of one GS-TG render, reusable across frames. The
/// stage products (splats, frame, image, counters, times) are valid after
/// Renderer::render returns; the scratch members are implementation
/// buffers.
struct FrameContext {
  // Stage products.
  std::vector<ProjectedSplat> splats;
  GroupedFrame frame;
  Framebuffer image{1, 1};
  StageTimes times;
  RenderCounters counters;

  // Reused stage scratch.
  PreprocessScratch preprocess;
  BinningScratch binning;
  SortScratch sort;
  RasterScratch raster;

  // Per-worker block-decode scratch (render(CompressedCloud) overload only).
  DecodeScratch decode;
};

/// A persistent renderer bound to one validated configuration. Stateless
/// across calls apart from the config, so one Renderer may be shared by
/// many threads as long as each thread renders into its own FrameContext.
class Renderer {
 public:
  /// Captures config.resolved() (core/gstg_config.h): the environment
  /// overrides are applied once here, so an invalid configuration or a
  /// malformed or unknown GSTG_* variable throws std::invalid_argument from
  /// the constructor.
  explicit Renderer(const GsTgConfig& config);

  [[nodiscard]] const GsTgConfig& config() const { return config_; }

  /// Renders the cloud from `camera` into `ctx`, reusing every buffer the
  /// context already holds. ctx.image / ctx.times / ctx.counters carry the
  /// result — identical to render_gstg(cloud, camera, config()).
  void render(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// Renders from the fp16-resident form: preprocess streams fixed-size
  /// blocks through the per-worker decode scratch in ctx.decode, so the
  /// float32 form of the whole cloud never exists. The splat stream, image
  /// and counters are bit-identical to render(cloud.decode(), camera, ctx)
  /// — the float32 reference — across threads and SIMD backends.
  void render(const CompressedCloud& cloud, const Camera& camera, FrameContext& ctx) const;

 private:
  void finish_frame(const Camera& camera, FrameContext& ctx, Timer& timer) const;

  GsTgConfig config_;
};

/// Batch rendering options.
struct BatchOptions {
  /// Concurrent view workers (0 = min(view count, worker_thread_count())).
  /// Each worker renders whole frames with the config's intra-frame thread
  /// setting; prefer view_threads * config.threads <= core count.
  std::size_t view_threads = 0;
};

/// Result of render_batch: per-view outputs in camera order plus the merged
/// counters and the batch wall-clock.
struct BatchRenderResult {
  std::vector<Framebuffer> images;
  std::vector<StageTimes> times;
  std::vector<RenderCounters> counters;
  RenderCounters total;
  double wall_ms = 0.0;
};

/// Renders every camera view of `cloud` under one config. Output images are
/// bit-identical to N independent render_gstg() calls; view workers reuse
/// one FrameContext each, so steady-state frames allocate only the returned
/// image copies.
BatchRenderResult render_batch(const GaussianCloud& cloud, std::span<const Camera> cameras,
                               const GsTgConfig& config, const BatchOptions& options = {});

}  // namespace gstg
