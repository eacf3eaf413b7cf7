#include "render/pipeline.h"

#include "common/runconfig.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "render/sort.h"
#include "telemetry/trace.h"

namespace gstg {

using telemetry::StageScope;

RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& requested) {
  // The environment is checked and read once per call, not once per stage:
  // an unknown GSTG_* variable throws here as it does in
  // GsTgConfig::resolved().
  reject_unknown_gstg_env();
  telemetry::ensure_started_from_env();
  RenderConfig config = requested;
  if (config.threads == 0) config.threads = worker_thread_count();
  config.simd = resolve_simd_backend(config.simd);
  RenderResult result{Framebuffer(camera.width(), camera.height()), {}, {}};

  GSTG_SPAN("baseline_frame");
  // Preprocessing: feature computation + culling + tile identification.
  std::vector<ProjectedSplat> splats;
  {
    StageScope stage("preprocess", result.times.preprocess_ms);
    splats = preprocess(cloud, camera, config, result.counters);
  }
  const CellGrid grid =
      CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  BinnedSplats bins;
  {
    StageScope stage("binning", result.times.preprocess_ms);
    bins = bin_splats(splats, grid, config.boundary, config.threads, result.counters);
  }
  {
    StageScope stage("sort_tiles", result.times.sort_ms);
    sort_cell_lists(bins, splats, config.threads, result.counters, config.sort_algo);
  }
  StageScope stage("raster", result.times.raster_ms);
  rasterize_all(bins, splats, result.image, config.threads, result.counters, config.simd);
  return result;
}

}  // namespace gstg
