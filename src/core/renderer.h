// Persistent GS-TG renderer: the allocation-free steady-state form of the
// one-shot pipeline in core/pipeline.h, and the only place in src/ that
// composes a GS-TG frame (paper Fig. 9). A frame is three public steps —
// prepare (preprocess -> group identification -> bitmask), sort, rasterize —
// so TemporalRenderer can swap the sort and build_gstg_frame can stop before
// the raster without composing the frame again.
//
// A FrameContext owns every per-frame product and scratch buffer. Rendering
// through a reused context is bit-identical to independent render_gstg()
// calls and allocates nothing once the buffers have warmed up (persistent
// device buffers in the GPU rasterizers this mirrors). render_batch() adds
// view-level parallelism; frames are independent, so its output is
// bit-identical to the sequential loop.
#pragma once

#include <span>
#include <vector>

#include "camera/camera.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "gaussian/cloud.h"
#include "gaussian/compressed.h"
#include "render/preprocess.h"

namespace gstg {

/// All per-frame state of one GS-TG render, reusable across frames. The
/// stage products (splats, frame, image, counters, times) are valid after
/// Renderer::render returns; the scratch members are implementation
/// buffers. `times` holds only the stages' own time: the glue between
/// stages (grid setup, the caller's bookkeeping) is not charged to any.
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

  /// Renders the cloud from `camera` into `ctx` (prepare, sort, rasterize),
  /// reusing every buffer the context already holds. ctx.image / ctx.times
  /// / ctx.counters carry the result — identical to render_gstg(cloud,
  /// camera, config()).
  void render(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// Renders from the fp16-resident form: preprocess streams fixed-size
  /// blocks through the per-worker decode scratch in ctx.decode, so the
  /// float32 form of the whole cloud never exists. The splat stream, image
  /// and counters are bit-identical to render(cloud.decode(), camera, ctx)
  /// — the float32 reference — across threads and SIMD backends.
  void render(const CompressedCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// Resets ctx.times and ctx.counters, then runs the stages "preprocess",
  /// "binning" (group identification, charged to preprocess_ms like the
  /// paper) and "bitmask".
  void prepare(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;
  void prepare(const CompressedCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// The group-wise sort of a prepared frame, untimed: the composer's
  /// StageScope names it ("sort_groups" in render(), "temporal_sort" in
  /// TemporalRenderer).
  void sort(FrameContext& ctx) const;

  /// Bitmask-filtered tile raster of a sorted frame into ctx.image (stage
  /// "raster").
  void rasterize(FrameContext& ctx) const;

 private:
  void identify_and_mask(const Camera& camera, FrameContext& ctx) const;
  void sort_and_rasterize(FrameContext& ctx) const;

  GsTgConfig config_;
};

/// Batch rendering options.
struct BatchOptions {
  /// Concurrent view workers (0 = min(view count, worker_thread_count())).
  /// With more than one, the batch owns the pool and each view's stages run
  /// inline on its worker; with one, views use the config's threads.
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

/// Renders every camera view of `cloud` under one config, one view per
/// chunk on the process worker pool (common/parallel.h). Output images are
/// bit-identical to N independent render_gstg() calls; each worker reuses
/// one FrameContext, so steady-state frames allocate only the returned
/// image copies.
BatchRenderResult render_batch(const GaussianCloud& cloud, std::span<const Camera> cameras,
                               const GsTgConfig& config, const BatchOptions& options = {});

}  // namespace gstg
