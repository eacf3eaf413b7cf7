#include "render/pipeline.h"

#include "common/timer.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"

namespace gstg {

RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& requested) {
  // One GSTG_THREADS read per call, not one per stage.
  RenderConfig config = requested;
  if (config.threads == 0) config.threads = worker_thread_count();
  RenderResult result{Framebuffer(camera.width(), camera.height()), {}, {}};
  Timer timer;

  // Preprocessing: feature computation + culling + tile identification.
  const std::vector<ProjectedSplat> splats =
      preprocess(cloud, camera, config, result.counters);
  const CellGrid grid =
      CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  BinnedSplats bins = bin_splats(splats, grid, config.boundary, config.threads, result.counters);
  result.times.preprocess_ms = timer.lap_ms();

  // Tile-wise sorting.
  sort_cell_lists(bins, splats, config.threads, result.counters, config.sort_algo);
  result.times.sort_ms = timer.lap_ms();

  // Tile-wise rasterization.
  rasterize_all(bins, splats, result.image, config.threads, result.counters, config.simd);
  result.times.raster_ms = timer.lap_ms();

  return result;
}

}  // namespace gstg
