#include "core/pipeline.h"

#include "common/timer.h"
#include "core/renderer.h"
#include "render/preprocess.h"

namespace gstg {

RenderResult render_gstg(const GaussianCloud& cloud, const Camera& camera,
                         const GsTgConfig& config) {
  // One-shot form of the persistent renderer (core/renderer.h): a fresh
  // FrameContext per call, so the two paths are the same code and stay
  // bit-identical by construction.
  const Renderer renderer(config);
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);
  return RenderResult{std::move(ctx.image), ctx.times, ctx.counters};
}

GsTgFrameData build_gstg_frame(const GaussianCloud& cloud, const Camera& camera,
                               const GsTgConfig& config) {
  config.validate();
  GsTgFrameData data;
  data.splats = preprocess(cloud, camera, config.render_config(), data.counters);
  data.frame.config = config;
  data.frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  data.frame.group_grid = CellGrid::over_image(camera.width(), camera.height(), config.group_size);
  data.frame.group_bins = identify_groups(data.splats, data.frame.group_grid, config, data.counters);
  data.frame.masks = generate_bitmasks(data.splats, data.frame.group_bins, data.frame.tile_grid,
                                       config, data.counters);
  sort_groups(data.frame.group_bins, data.frame.masks, data.splats, config.threads, data.counters,
              config.sort_algo);
  return data;
}

}  // namespace gstg
