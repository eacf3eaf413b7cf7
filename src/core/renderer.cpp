#include "core/renderer.h"

#include "common/parallel.h"
#include "common/timer.h"
#include "telemetry/trace.h"

namespace gstg {

using telemetry::StageScope;

Renderer::Renderer(const GsTgConfig& config) : config_(config.resolved()) {
  telemetry::ensure_started_from_env();
  if (config_.trace) telemetry::ensure_collecting();
}

void Renderer::render(const GaussianCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  GSTG_SPAN("frame");
  prepare(cloud, camera, ctx);
  sort_and_rasterize(ctx);
}

void Renderer::render(const CompressedCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  GSTG_SPAN("frame");
  prepare(cloud, camera, ctx);
  sort_and_rasterize(ctx);
}

void Renderer::prepare(const GaussianCloud& cloud, const Camera& camera,
                       FrameContext& ctx) const {
  ctx.times = {};
  ctx.counters = {};
  {
    // Preprocessing: features + culling. The scratch-reusing form keeps the
    // steady state allocation-free.
    StageScope stage("preprocess", ctx.times.preprocess_ms);
    preprocess_into(cloud, camera, config_.render_config(), ctx.counters, ctx.splats,
                    ctx.preprocess);
  }
  identify_and_mask(camera, ctx);
}

void Renderer::prepare(const CompressedCloud& cloud, const Camera& camera,
                       FrameContext& ctx) const {
  ctx.times = {};
  ctx.counters = {};
  {
    StageScope stage("preprocess", ctx.times.preprocess_ms);
    preprocess_compressed_into(cloud, camera, config_.render_config(), ctx.counters, ctx.splats,
                               ctx.preprocess, ctx.decode);
  }
  identify_and_mask(camera, ctx);
}

void Renderer::identify_and_mask(const Camera& camera, FrameContext& ctx) const {
  ctx.frame.config = config_;
  ctx.frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config_.tile_size);
  ctx.frame.group_grid =
      CellGrid::over_image(camera.width(), camera.height(), config_.group_size);
  {
    // Group identification is bin_splats at group granularity
    // (identify_groups); charged to the preprocessing stage like the paper.
    StageScope stage("binning", ctx.times.preprocess_ms);
    bin_splats_into(ctx.splats, ctx.frame.group_grid, config_.group_boundary, config_.threads,
                    ctx.counters, ctx.frame.group_bins, ctx.binning);
  }
  // Bitmask generation (its own stage here; overlapped with sorting in HW).
  StageScope stage("bitmask", ctx.times.bitmask_ms);
  generate_bitmasks_into(ctx.splats, ctx.frame.group_bins, ctx.frame.tile_grid, config_,
                         ctx.counters, ctx.frame.masks);
}

void Renderer::sort(FrameContext& ctx) const {
  sort_groups(ctx.frame.group_bins, ctx.frame.masks, ctx.splats, config_.threads, ctx.counters,
              config_.sort_algo, &ctx.sort);
}

void Renderer::sort_and_rasterize(FrameContext& ctx) const {
  {
    StageScope stage("sort_groups", ctx.times.sort_ms);
    sort(ctx);
  }
  rasterize(ctx);
}

void Renderer::rasterize(FrameContext& ctx) const {
  // Tile-wise rasterization with bitmask filtering.
  StageScope stage("raster", ctx.times.raster_ms);
  ctx.image.resize(ctx.frame.tile_grid.image_width, ctx.frame.tile_grid.image_height);
  rasterize_grouped(ctx.frame, ctx.splats, ctx.image, config_.threads, ctx.counters, &ctx.raster);
}

BatchRenderResult render_batch(const GaussianCloud& cloud, std::span<const Camera> cameras,
                               const GsTgConfig& config, const BatchOptions& options) {
  const Renderer renderer(config);
  const std::size_t n = cameras.size();

  BatchRenderResult result;
  result.images.reserve(n);
  for (const Camera& camera : cameras) {
    result.images.emplace_back(camera.width(), camera.height());
  }
  result.times.resize(n);
  result.counters.resize(n);

  Timer timer;
  // One view per chunk, so a heavy view does not stall the tail of the
  // batch; one FrameContext per planned worker (view_threads == 0 plans
  // min(n, worker_thread_count()), like any other region).
  std::vector<FrameContext> contexts(planned_worker_count(n, options.view_threads));
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    FrameContext& ctx = contexts[worker];
    for (std::size_t i = lo; i < hi; ++i) {
      renderer.render(cloud, cameras[i], ctx);
      result.images[i] = ctx.image;
      result.times[i] = ctx.times;
      result.counters[i] = ctx.counters;
    }
  }, options.view_threads, 1);
  result.wall_ms = timer.elapsed_ms();

  for (const RenderCounters& c : result.counters) result.total.merge(c);
  return result;
}

}  // namespace gstg
