// Tile-wise rasterization: alpha computation (paper eq. 1) and front-to-back
// alpha blending (eq. 2) with the 1/255 alpha skip and 1e-4 transmittance
// early exit. The single-tile routine is shared by the baseline pipeline
// (per-tile sorted lists) and GS-TG (group-sorted list filtered by bitmask).
//
// The inner loop runs through the SIMD kernel table (render/simd_kernels.h):
// a SimdBackend selects the lane width (scalar / SSE4.2 / AVX2 / NEON, kAuto =
// widest verified backend). Every backend evaluates alpha = sigma *
// fast_exp(-q / 2) with the same op sequence (common/simd.h), so images and
// counters are bit-identical across backends. The footprint guard reads the
// per-splat ProjectedSplat::q_max that preprocess computed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/simd.h"
#include "render/binning.h"
#include "render/framebuffer.h"
#include "render/types.h"

namespace gstg {

/// Per-tile rasterization statistics (merged into RenderCounters).
struct TileRasterStats {
  std::size_t alpha_computations = 0;
  std::size_t blend_ops = 0;
  std::size_t early_exit_pixels = 0;
  std::size_t pixel_list_work = 0;
  std::size_t pixels = 0;

  void accumulate(const TileRasterStats& s) {
    alpha_computations += s.alpha_computations;
    blend_ops += s.blend_ops;
    early_exit_pixels += s.early_exit_pixels;
    pixel_list_work += s.pixel_list_work;
    pixels += s.pixels;
  }
};

/// Reusable per-worker blending buffers in structure-of-arrays layout (lane
/// kernels stream them directly): pixel centres, transmittance, accumulated
/// colour channels and the surviving pixel index, all compacted together
/// when pixels hit the transmittance early exit. Sized to the largest tile
/// seen so far (rounded up to the widest lane count).
struct TileRasterScratch {
  std::vector<float> px;
  std::vector<float> py;
  std::vector<float> transmittance;
  std::vector<float> r;
  std::vector<float> g;
  std::vector<float> b;
  std::vector<std::uint32_t> pixel;

  /// Reserves room for blocks of up to `pixels` pixels at every lane width
  /// (16 is a multiple of each), so the kernel never grows a warmed scratch
  /// whichever tile the pool hands its worker.
  void reserve(std::size_t pixels) {
    const std::size_t cap = (pixels + 15) / 16 * 16;
    for (std::vector<float>* v : {&px, &py, &transmittance, &r, &g, &b}) v->reserve(cap);
    pixel.reserve(cap);
  }
};

/// Rasterizes the depth-ordered splat sequence `order` into the pixel block
/// [x0, x1) x [y0, y1) of `fb` (block must lie inside the framebuffer).
/// Pixel centres are at integer + 0.5. Returns the work statistics;
/// `alpha_computations` counts the (pixel, splat) pairs whose quad
/// evaluation passed the footprint guard (0 <= q <= 2 ln(255 sigma)) — the
/// alpha evaluations the datapath actually performs, the paper's Fig. 7
/// workload quantity.
TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, SimdBackend simd = SimdBackend::kAuto);

/// rasterize_tile() with caller-owned blending buffers (no allocations once
/// the scratch has warmed up to the tile size).
GSTG_HOT_NOALLOC
TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, TileRasterScratch& scratch,
                               SimdBackend simd = SimdBackend::kAuto);

/// Reusable per-worker rasterization buffers, one slot per parallel worker:
/// the tile kernel's blending scratch plus, for GS-TG's rasterize_grouped
/// (core/grouping.h), the bitmask-filtered id list.
struct RasterScratch {
  struct Worker {
    std::vector<std::uint32_t> filtered;
    TileRasterScratch tile;
  };
  std::vector<Worker> workers;

  /// Ensures `worker_count` slots exist, each able to take a
  /// `tile_pixels`-pixel tile and a `max_filtered`-entry filtered list
  /// without growing: the pool hands tiles to workers dynamically, so every
  /// slot must fit the largest for a warmed frame to allocate nothing.
  void prepare(std::size_t worker_count, std::size_t tile_pixels, std::size_t max_filtered) {
    if (workers.size() < worker_count) workers.resize(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) {
      workers[w].tile.reserve(tile_pixels);
      workers[w].filtered.reserve(max_filtered);
    }
  }
};

/// Baseline full-image rasterization over per-tile sorted lists, one tile
/// per scheduled chunk. `scratch` reuses per-worker buffers across frames
/// (nullptr = self-contained call).
GSTG_HOT_NOALLOC
void rasterize_all(const BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                   Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                   SimdBackend simd = SimdBackend::kAuto, RasterScratch* scratch = nullptr);

}  // namespace gstg
