#include "render/rasterize.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/parallel.h"
#include "render/simd_kernels.h"

namespace gstg {

TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, SimdBackend simd) {
  TileRasterScratch scratch;
  return rasterize_tile(splats, order, x0, y0, x1, y1, fb, scratch, simd);
}

TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, TileRasterScratch& scratch,
                               SimdBackend simd) {
  if (x0 < 0 || y0 < 0 || x1 > fb.width() || y1 > fb.height() || x1 <= x0 || y1 <= y0) {
    throw std::invalid_argument("rasterize_tile: block out of bounds");
  }
  const SimdKernels& kernels = simd_kernels(resolve_simd_backend(simd));
  return kernels.rasterize_tile(splats, order, x0, y0, x1, y1, fb, scratch);
}

void rasterize_all(const BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                   Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                   SimdBackend simd, RasterScratch* scratch) {
  const CellGrid& grid = bins.grid;
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());

  // Resolve once per stage (not per tile): a kAuto from a one-shot caller
  // costs one env read here, then every worker gets a concrete backend.
  const SimdBackend resolved = resolve_simd_backend(simd);

  // Per-worker blending buffers sized from the exact worker count; the
  // stats are plain integers, so they merge through atomics.
  const std::size_t workers = planned_worker_count(cells, threads);
  RasterScratch local_scratch;
  RasterScratch& rs = scratch != nullptr ? *scratch : local_scratch;
  rs.prepare(workers, grid.max_cell_pixels(), 0);
  std::atomic<std::size_t> alpha{0}, blends{0}, exits{0}, list_work{0}, pixels{0};

  parallel_for_chunks(0, cells, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    TileRasterStats local;
    TileRasterScratch& tile = rs.workers[worker].tile;
    for (std::size_t c = lo; c < hi; ++c) {
      const int cx = static_cast<int>(c) % grid.cells_x;
      const int cy = static_cast<int>(c) / grid.cells_x;
      const int x0 = cx * grid.cell_size;
      const int y0 = cy * grid.cell_size;
      const int x1 = std::min(x0 + grid.cell_size, grid.image_width);
      const int y1 = std::min(y0 + grid.cell_size, grid.image_height);
      local.accumulate(rasterize_tile(splats, bins.cell_list(static_cast<int>(c)), x0, y0, x1,
                                      y1, fb, tile, resolved));
    }
    alpha.fetch_add(local.alpha_computations, std::memory_order_relaxed);
    blends.fetch_add(local.blend_ops, std::memory_order_relaxed);
    exits.fetch_add(local.early_exit_pixels, std::memory_order_relaxed);
    list_work.fetch_add(local.pixel_list_work, std::memory_order_relaxed);
    pixels.fetch_add(local.pixels, std::memory_order_relaxed);
  }, threads, cell_grain(cells, threads));

  counters.alpha_computations += alpha.load();
  counters.blend_ops += blends.load();
  counters.early_exit_pixels += exits.load();
  counters.pixel_list_work += list_work.load();
  counters.total_pixels += pixels.load();
}

}  // namespace gstg
