#include "core/grouping.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/parallel.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "render/sort.h"
#include "telemetry/trace.h"

namespace gstg {

BinnedSplats identify_groups(std::span<const ProjectedSplat> splats, const CellGrid& group_grid,
                             const GsTgConfig& config, RenderCounters& counters) {
  config.validate();
  return bin_splats(splats, group_grid, config.group_boundary, config.threads, counters);
}

std::vector<TileMask> generate_bitmasks(std::span<const ProjectedSplat> splats,
                                        const BinnedSplats& group_bins,
                                        const CellGrid& tile_grid, const GsTgConfig& config,
                                        RenderCounters& counters) {
  std::vector<TileMask> masks;
  generate_bitmasks_into(splats, group_bins, tile_grid, config, counters, masks);
  return masks;
}

void generate_bitmasks_into(std::span<const ProjectedSplat> splats,
                            const BinnedSplats& group_bins, const CellGrid& tile_grid,
                            const GsTgConfig& config, RenderCounters& counters,
                            std::vector<TileMask>& masks) {
  config.validate();
  const CellGrid& group_grid = group_bins.grid;
  const int r = config.tiles_per_side();
  masks.assign(group_bins.splat_ids.size(), 0);

  std::atomic<std::size_t> tests{0};

  const std::size_t groups = static_cast<std::size_t>(group_grid.cell_count());
  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::size_t local_tests = 0;
    for (std::size_t g = lo; g < hi; ++g) {
      const int gx = static_cast<int>(g) % group_grid.cells_x;
      const int gy = static_cast<int>(g) / group_grid.cells_x;
      // Global tile-index window covered by this group, clipped to the grid.
      const int tx_lo = gx * r;
      const int ty_lo = gy * r;
      const int tx_hi = std::min(tile_grid.cells_x, tx_lo + r);
      const int ty_hi = std::min(tile_grid.cells_y, ty_lo + r);

      for (std::uint32_t e = group_bins.offsets[g]; e < group_bins.offsets[g + 1]; ++e) {
        const ProjectedSplat& s = splats[group_bins.splat_ids[e]];
        // Restrict to the splat's AABB candidate range — the same candidate
        // enumeration baseline binning uses, so hit sets match exactly.
        const TileRange cand = candidate_cells(s, tile_grid);
        const int x0 = std::max(tx_lo, cand.tx0);
        const int x1 = std::min(tx_hi, cand.tx1);
        const int y0 = std::max(ty_lo, cand.ty0);
        const int y1 = std::min(ty_hi, cand.ty1);
        if (x0 >= x1 || y0 >= y1) continue;

        TileMask mask = 0;
        if (config.mask_boundary == Boundary::kAabb) {
          for (int ty = y0; ty < y1; ++ty) {
            for (int tx = x0; tx < x1; ++tx) {
              ++local_tests;
              mask |= TileMask{1} << mask_bit_index(tx - tx_lo, ty - ty_lo, r);
            }
          }
        } else {
          const Ellipse footprint = s.footprint();
          // The OBB costs an eigen decomposition; only kObb reads it.
          const Obb obb = config.mask_boundary == Boundary::kObb ? Obb::from_ellipse(footprint)
                                                                 : Obb{};
          for (int ty = y0; ty < y1; ++ty) {
            for (int tx = x0; tx < x1; ++tx) {
              const Rect rect = tile_rect(tx, ty, tile_grid.cell_size, tile_grid.image_width,
                                          tile_grid.image_height);
              ++local_tests;
              const bool hit = config.mask_boundary == Boundary::kObb
                                   ? obb_intersects(obb, rect)
                                   : ellipse_intersects(footprint, rect);
              if (hit) mask |= TileMask{1} << mask_bit_index(tx - tx_lo, ty - ty_lo, r);
            }
          }
        }
        masks[e] = mask;
      }
    }
    tests.fetch_add(local_tests, std::memory_order_relaxed);
  }, config.threads, cell_grain(groups, config.threads));

  counters.bitmask_tests += tests.load();
}

void sort_group_entries(std::uint32_t* ids, TileMask* masks, std::size_t n,
                        std::span<const ProjectedSplat> splats, SortAlgo algo, int key_bits,
                        int index_bits, SortWorkerScratch& ws) {
  if (n <= 1) return;

  // Packed (depth_bits, index) keys order exactly as the old comparator.
  // The value half carries the id (high 32) plus the entry's original
  // position (low 32), which gathers the mask from the snapshot in ws.keys
  // after the sort.
  if (ws.items.size() < n) ws.items.resize(n);
  if (ws.keys.size() < n) ws.keys.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t id = ids[k];
    ws.items[k] = {pack_depth_index_key(splats[id].depth, splats[id].index, index_bits),
                   (static_cast<std::uint64_t>(id) << 32) | k};
    ws.keys[k] = masks[k];
  }
  if (use_radix_sort(algo, n)) {
    radix_sort_pairs(ws.items, ws.items_tmp, n, key_bits);
  } else {
    std::sort(ws.items.begin(), ws.items.begin() + static_cast<std::ptrdiff_t>(n),
              [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t value = ws.items[k].value;
    ids[k] = static_cast<std::uint32_t>(value >> 32);
    masks[k] = ws.keys[static_cast<std::uint32_t>(value)];
  }
}

void sort_groups(BinnedSplats& group_bins, std::vector<TileMask>& masks,
                 std::span<const ProjectedSplat> splats, std::size_t threads,
                 RenderCounters& counters, SortAlgo algo, SortScratch* scratch) {
  if (masks.size() != group_bins.splat_ids.size()) {
    throw std::invalid_argument("sort_groups: mask array size mismatch");
  }
  const std::size_t groups = static_cast<std::size_t>(group_bins.grid.cell_count());

  // Per-worker buffers sized from the exact worker count so indices can
  // never alias.
  const std::size_t workers = planned_worker_count(groups, threads);
  SortScratch local_scratch;
  SortScratch& s = scratch != nullptr ? *scratch : local_scratch;
  s.prepare(workers, group_bins.max_cell_size());

  // Compact the key's index half to its true width so the radix path runs
  // the minimum number of passes (depth always needs its full 32 bits).
  std::uint32_t max_index = 0;
  for (const ProjectedSplat& splat : splats) max_index = std::max(max_index, splat.index);
  const int key_bits = depth_index_key_bits(max_index);
  const int index_bits = key_bits - 32;

  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("sort_groups_chunk");
    SortWorkerScratch& ws = s.workers[worker];
    for (std::size_t g = lo; g < hi; ++g) {
      const std::uint32_t begin = group_bins.offsets[g];
      const std::uint32_t end = group_bins.offsets[g + 1];
      sort_group_entries(group_bins.splat_ids.data() + begin, masks.data() + begin, end - begin,
                         splats, algo, key_bits, index_bits, ws);
    }
  }, threads, cell_grain(groups, threads));

  account_cell_sorts(group_bins, algo, key_bits, counters);
}

void rasterize_grouped(const GroupedFrame& frame, std::span<const ProjectedSplat> splats,
                       Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                       RasterScratch* scratch) {
  const CellGrid& tile_grid = frame.tile_grid;
  const CellGrid& group_grid = frame.group_grid;
  const int r = frame.config.tiles_per_side();
  const std::size_t tiles = static_cast<std::size_t>(tile_grid.cell_count());

  // Backend resolution happens once per frame; every tile kernel call then
  // dispatches on a concrete backend (no env reads in the hot loop).
  const SimdPolicy simd{resolve_simd_backend(frame.config.simd.backend)};

  // Per-worker reusable buffers sized from the exact worker count. The
  // stats are plain integers, so they merge through atomics.
  const std::size_t workers = planned_worker_count(tiles, threads);
  RasterScratch local_scratch;
  RasterScratch& rs = scratch != nullptr ? *scratch : local_scratch;
  rs.prepare(workers, tile_grid.max_cell_pixels(), frame.group_bins.max_cell_size());

  struct WorkerStats {
    TileRasterStats raster;
    std::size_t filter_checks = 0;
  };
  std::atomic<std::size_t> alpha{0}, blends{0}, exits{0}, list_work{0}, pixels{0}, checks{0};

  parallel_for_chunks(0, tiles, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("raster_chunk");
    WorkerStats local;
    RasterScratch::Worker& wk = rs.workers[worker];
    std::vector<std::uint32_t>& filtered = wk.filtered;
    for (std::size_t t = lo; t < hi; ++t) {
      const int tx = static_cast<int>(t) % tile_grid.cells_x;
      const int ty = static_cast<int>(t) / tile_grid.cells_x;
      const int gx = tx / r;
      const int gy = ty / r;
      const std::size_t g = static_cast<std::size_t>(group_grid.cell_index(gx, gy));
      const TileMask location =
          TileMask{1} << mask_bit_index(tx - gx * r, ty - gy * r, r);

      // The RM's filter: AND each entry's bitmask with the tile location.
      filtered.clear();
      const std::uint32_t begin = frame.group_bins.offsets[g];
      const std::uint32_t end = frame.group_bins.offsets[g + 1];
      local.filter_checks += end - begin;
      for (std::uint32_t e = begin; e < end; ++e) {
        if (frame.masks[e] & location) filtered.push_back(frame.group_bins.splat_ids[e]);
      }

      const int x0 = tx * tile_grid.cell_size;
      const int y0 = ty * tile_grid.cell_size;
      const int x1 = std::min(x0 + tile_grid.cell_size, tile_grid.image_width);
      const int y1 = std::min(y0 + tile_grid.cell_size, tile_grid.image_height);
      local.raster.accumulate(
          rasterize_tile(splats, filtered, x0, y0, x1, y1, fb, wk.tile, simd));
    }
    alpha.fetch_add(local.raster.alpha_computations, std::memory_order_relaxed);
    blends.fetch_add(local.raster.blend_ops, std::memory_order_relaxed);
    exits.fetch_add(local.raster.early_exit_pixels, std::memory_order_relaxed);
    list_work.fetch_add(local.raster.pixel_list_work, std::memory_order_relaxed);
    pixels.fetch_add(local.raster.pixels, std::memory_order_relaxed);
    checks.fetch_add(local.filter_checks, std::memory_order_relaxed);
  }, threads, cell_grain(tiles, threads));

  counters.alpha_computations += alpha.load();
  counters.blend_ops += blends.load();
  counters.early_exit_pixels += exits.load();
  counters.pixel_list_work += list_work.load();
  counters.total_pixels += pixels.load();
  counters.filter_checks += checks.load();
}

}  // namespace gstg
