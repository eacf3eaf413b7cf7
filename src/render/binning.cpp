#include "render/binning.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "geometry/clamped_cast.h"

namespace gstg {

namespace {

/// Candidate range of an AABB, clipped to the grid. Any NaN coordinate
/// makes the validity comparison fail and yields the empty range; an
/// infinite but ordered box (huge rho) covers the full grid.
TileRange range_of_box(const Rect& box, const CellGrid& grid) {
  if (!(box.x0 <= box.x1) || !(box.y0 <= box.y1)) return {};
  const float cs = static_cast<float>(grid.cell_size);
  TileRange r;
  r.tx0 = clamped_cell_floor(box.x0, cs, grid.cells_x, 0);
  r.ty0 = clamped_cell_floor(box.y0, cs, grid.cells_y, 0);
  r.tx1 = clamped_cell_floor(box.x1, cs, grid.cells_x, 1);
  r.ty1 = clamped_cell_floor(box.y1, cs, grid.cells_y, 1);
  return r;
}

}  // namespace

CellGrid CellGrid::over_image(int image_width, int image_height, int cell_size) {
  if (image_width <= 0 || image_height <= 0 || cell_size <= 0) {
    throw std::invalid_argument("CellGrid: non-positive dimensions");
  }
  CellGrid g;
  g.cell_size = cell_size;
  g.image_width = image_width;
  g.image_height = image_height;
  g.cells_x = (image_width + cell_size - 1) / cell_size;
  g.cells_y = (image_height + cell_size - 1) / cell_size;
  if (static_cast<long long>(g.cells_x) * g.cells_y >
      static_cast<long long>(std::numeric_limits<int>::max())) {
    throw BinningError("cell grid " + std::to_string(g.cells_x) + "x" +
                       std::to_string(g.cells_y) + " overflows the int cell-index space");
  }
  return g;
}

std::uint32_t csr_offsets_from_counts(std::span<std::uint32_t> counts, std::size_t cells,
                                      std::vector<std::uint32_t>& offsets) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::size_t rows = cells == 0 ? 0 : counts.size() / cells;
  offsets.resize(cells + 1);
  std::uint64_t running = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    offsets[c] = static_cast<std::uint32_t>(running);
    for (std::size_t row = 0; row < rows; ++row) {
      std::uint32_t& entry = counts[row * cells + c];
      const std::uint32_t count = entry;
      entry = static_cast<std::uint32_t>(running);
      running += count;
      if (running > kMax) {
        throw BinningError("CSR pair count " + std::to_string(running) +
                           " overflows the 32-bit index space (reduce the workload or shrink "
                           "the footprints)");
      }
    }
  }
  offsets[cells] = static_cast<std::uint32_t>(running);
  return static_cast<std::uint32_t>(running);
}

TileRange candidate_cells(const ProjectedSplat& splat, const CellGrid& grid) {
  return range_of_box(splat.footprint().aabb(), grid);
}

BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters) {
  BinnedSplats out;
  BinningScratch scratch;
  bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);
  return out;
}

void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch, BinningMode /*unused*/) {
  out.grid = grid;
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());
  const std::size_t n = splats.size();

  // Chunk k is splats [k * grain, (k + 1) * grain) and owns row k of the
  // count array, so no two workers write the same counter. The inline
  // fallback hands the body a range spanning several chunks; it walks them
  // in order.
  const std::size_t grain = cell_grain(n, threads);
  const std::size_t chunks = (n + grain - 1) / grain;
  const auto for_each_chunk = [&](std::size_t lo, std::size_t hi, const auto& body) {
    for (std::size_t chunk = lo / grain; chunk * grain < hi; ++chunk) {
      body(chunk, chunk * grain, std::min(hi, (chunk + 1) * grain));
    }
  };

  // Pass 1: each chunk counts its hits per cell into its own row.
  scratch.cell_counts.assign(chunks * cells, 0);
  scratch.chunk_tallies.assign(chunks, {});
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for_each_chunk(lo, hi, [&](std::size_t chunk, std::size_t first, std::size_t last) {
      std::uint32_t* row = scratch.cell_counts.data() + chunk * cells;
      BinningScratch::ChunkTally& tally = scratch.chunk_tallies[chunk];
      for (std::size_t i = first; i < last; ++i) {
        std::size_t hits = 0;
        tally.tests += for_each_hit_cell(splats[i], grid, boundary, [&](int cell) {
          ++row[cell];
          ++hits;
        });
        if (hits >= 2) ++tally.multi_tile;
      }
    });
  }, threads, grain);

  // Cell-major, chunk-minor prefix sum: the CSR offsets, and every row
  // turned into its chunk's scatter cursors.
  const std::uint32_t total = csr_offsets_from_counts(scratch.cell_counts, cells, out.offsets);
  out.splat_ids.resize(total);

  // Pass 2: scatter through the private cursors. A cell's list receives
  // chunk 0's hits, then chunk 1's, and so on, so it holds its splats in
  // ascending index order at every thread count and schedule.
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for_each_chunk(lo, hi, [&](std::size_t chunk, std::size_t first, std::size_t last) {
      std::uint32_t* cursor = scratch.cell_counts.data() + chunk * cells;
      for (std::size_t i = first; i < last; ++i) {
        for_each_hit_cell(splats[i], grid, boundary, [&](int cell) {
          out.splat_ids[cursor[cell]++] = static_cast<std::uint32_t>(i);
        });
      }
    });
  }, threads, grain);

  for (const BinningScratch::ChunkTally& tally : scratch.chunk_tallies) {
    counters.boundary_tests += tally.tests;
    counters.splats_multi_tile += tally.multi_tile;
  }
  counters.tile_pairs += total;
}

}  // namespace gstg
