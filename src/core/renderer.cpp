#include "core/renderer.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/runconfig.h"
#include "telemetry/trace.h"

namespace gstg {

Renderer::Renderer(const GsTgConfig& config) : config_(config.resolved()) {
  telemetry::ensure_started_from_env();
  if (config_.trace) telemetry::ensure_collecting();
}

void Renderer::render(const GaussianCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  GSTG_SPAN("frame");
  ctx.times = {};
  ctx.counters = {};
  Timer timer;

  {
    // Preprocessing: features + culling. The scratch-reusing form keeps the
    // steady state allocation-free.
    GSTG_SPAN("preprocess");
    preprocess_into(cloud, camera, config_.render_config(), ctx.counters, ctx.splats,
                    ctx.preprocess);
  }
  finish_frame(camera, ctx, timer);
}

void Renderer::render(const CompressedCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  GSTG_SPAN("frame");
  ctx.times = {};
  ctx.counters = {};
  Timer timer;

  {
    GSTG_SPAN("preprocess");
    preprocess_compressed_into(cloud, camera, config_.render_config(), ctx.counters, ctx.splats,
                               ctx.preprocess, ctx.decode);
  }
  finish_frame(camera, ctx, timer);
}

void Renderer::finish_frame(const Camera& camera, FrameContext& ctx, Timer& timer) const {
  // Group identification is bin_splats at group granularity
  // (identify_groups); charged to the preprocessing stage like the paper.
  ctx.frame.config = config_;
  ctx.frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config_.tile_size);
  ctx.frame.group_grid =
      CellGrid::over_image(camera.width(), camera.height(), config_.group_size);
  {
    GSTG_SPAN("binning");
    bin_splats_into(ctx.splats, ctx.frame.group_grid, config_.group_boundary, config_.threads,
                    ctx.counters, ctx.frame.group_bins, ctx.binning);
  }
  ctx.times.preprocess_ms = timer.lap_ms();

  {
    // Bitmask generation (its own stage here; overlapped with sorting in HW).
    GSTG_SPAN("bitmask");
    generate_bitmasks_into(ctx.splats, ctx.frame.group_bins, ctx.frame.tile_grid, config_,
                           ctx.counters, ctx.frame.masks);
  }
  ctx.times.bitmask_ms = timer.lap_ms();

  {
    // Group-wise sorting.
    GSTG_SPAN("sort_groups");
    sort_groups(ctx.frame.group_bins, ctx.frame.masks, ctx.splats, config_.threads, ctx.counters,
                config_.sort_algo, &ctx.sort);
  }
  ctx.times.sort_ms = timer.lap_ms();

  {
    // Tile-wise rasterization with bitmask filtering.
    GSTG_SPAN("raster");
    ctx.image.resize(camera.width(), camera.height());
    rasterize_grouped(ctx.frame, ctx.splats, ctx.image, config_.threads, ctx.counters,
                      &ctx.raster);
  }
  ctx.times.raster_ms = timer.lap_ms();
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
  std::size_t workers = options.view_threads == 0
                            ? std::min<std::size_t>(n, worker_thread_count())
                            : std::min<std::size_t>(n, options.view_threads);
  if (workers <= 1) {
    FrameContext ctx;
    for (std::size_t i = 0; i < n; ++i) {
      renderer.render(cloud, cameras[i], ctx);
      result.images[i] = ctx.image;
      result.times[i] = ctx.times;
      result.counters[i] = ctx.counters;
    }
  } else {
    // One FrameContext per view worker; the shared cursor hands out frames
    // dynamically so a heavy view does not stall the tail of the batch.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        FrameContext ctx;
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          renderer.render(cloud, cameras[i], ctx);
          result.images[i] = ctx.image;
          result.times[i] = ctx.times;
          result.counters[i] = ctx.counters;
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  result.wall_ms = timer.lap_ms();

  for (const RenderCounters& c : result.counters) result.total.merge(c);
  return result;
}

}  // namespace gstg
