// Tile identification ("binning"): assigns every projected splat to the
// grid cells its footprint intersects, using one of the three boundary
// methods (AABB / OBB / Ellipse). The same routine serves the baseline's
// tile grid and GS-TG's group grid — a group is just a larger cell.
//
// One pass, one boundary test per candidate cell of the footprint's AABB
// range. The splat range is cut into contiguous chunks of
// cell_grain(n, threads) splats (about eight per worker). Each chunk counts
// its hits into its own row of per-cell counters; one cell-major,
// chunk-minor prefix sum turns the rows into private scatter cursors and
// the CSR offsets; the scatter pass then writes the ids without atomics.
// Every cell list therefore holds its splats in ascending index order, and
// the CSR is byte-identical at every thread count and schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/runconfig.h"
#include "render/types.h"

namespace gstg {

/// Typed failure of the binning stage: CSR index-space overflow at full
/// scale, or a cell grid whose cell count exceeds int.
/// Distinct from std::invalid_argument (caller misuse) the same way
/// PlyError marks bad input data.
class BinningError : public std::runtime_error {
 public:
  explicit BinningError(const std::string& message)
      : std::runtime_error("binning: " + message) {}
};

/// A uniform grid of square cells covering the image.
struct CellGrid {
  int cell_size = 16;
  int cells_x = 0;
  int cells_y = 0;
  int image_width = 0;
  int image_height = 0;

  /// Throws std::invalid_argument on non-positive dimensions and
  /// BinningError when cells_x * cells_y would overflow the int cell-index
  /// space (full-scale guard: cell_count() must stay exact).
  static CellGrid over_image(int image_width, int image_height, int cell_size);

  [[nodiscard]] int cell_count() const { return cells_x * cells_y; }
  [[nodiscard]] int cell_index(int cx, int cy) const { return cy * cells_x + cx; }
  /// Pixels of the largest cell: cell_size squared, clipped to the image.
  [[nodiscard]] std::size_t max_cell_pixels() const {
    return static_cast<std::size_t>(std::min(cell_size, image_width)) *
           static_cast<std::size_t>(std::min(cell_size, image_height));
  }
};

/// CSR lists: splats_of_cell(c) = splat_ids[offsets[c] .. offsets[c+1]).
/// Entries index into the ProjectedSplat vector passed to bin_splats.
struct BinnedSplats {
  CellGrid grid;
  std::vector<std::uint32_t> offsets;    // grid.cell_count() + 1
  std::vector<std::uint32_t> splat_ids;  // tile_pairs entries

  [[nodiscard]] std::span<const std::uint32_t> cell_list(int cell) const {
    return {splat_ids.data() + offsets[cell], offsets[cell + 1] - offsets[cell]};
  }
  [[nodiscard]] std::size_t cell_size_of(int cell) const {
    return offsets[cell + 1] - offsets[cell];
  }
  /// Length of the longest cell list (0 when there are no cells).
  [[nodiscard]] std::size_t max_cell_size() const {
    std::size_t longest = 0;
    for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
      longest = std::max<std::size_t>(longest, offsets[c + 1] - offsets[c]);
    }
    return longest;
  }
};

/// Reusable binning scratch, owned by the persistent renderer's
/// FrameContext. Grows to the workload once and is then reused
/// allocation-free. Kept as a named type because perfbench/workloads.cpp
/// declares one.
struct BinningScratch {
  /// Splat-chunk tallies of the counters, summed in chunk order.
  struct ChunkTally {
    std::size_t tests = 0;
    std::size_t multi_tile = 0;
  };
  std::vector<std::uint32_t> cell_counts;  ///< chunks × cells: counts, then cursors
  std::vector<ChunkTally> chunk_tallies;   ///< one per splat chunk
};

/// CSR offsets (cells + 1 entries) from `counts`, which holds rows of
/// `cells` per-cell counts (one row per splat chunk). The prefix sum runs
/// cell-major, chunk-minor and rewrites every count with the running total
/// before it — that row's scatter cursor for the cell. Returns the total.
/// Throws BinningError when the total overflows the 32-bit CSR index space
/// instead of silently wrapping and scattering out of bounds — the regime
/// full-scale scenes can reach. Exposed for the overflow regression tests
/// (an in-process 2^32-pair workload is not testable).
std::uint32_t csr_offsets_from_counts(std::span<std::uint32_t> counts, std::size_t cells,
                                      std::vector<std::uint32_t>& offsets);

/// Bins splats into grid cells. Candidate cells come from the footprint's
/// axis-aligned bounding box; OBB/Ellipse refine each candidate (the
/// GSCore/FlashGS strategy), so tiles(Ellipse) ⊆ tiles(OBB) ⊆ tiles(AABB)
/// holds by construction. Updates boundary_tests, tile_pairs and
/// splats_multi_tile in `counters`.
BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters);

/// bin_splats() into caller-owned CSR storage, reusing `scratch`. `out`'s
/// vectors are resized in place; in the steady state (same grid, same pair
/// count) no allocation happens. The trailing BinningMode is ignored; it
/// stays because perfbench/workloads.cpp passes one.
GSTG_HOT_NOALLOC
void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch,
                     BinningMode mode = BinningMode::kFlat);

/// Cell range of the footprint's AABB clipped to the grid (exposed for the
/// bitmask generator, which iterates the same candidates inside a group).
/// The division and clamping happen in the float domain before any cast:
/// degenerate splats (huge rho, non-finite mean/conic) yield the full grid
/// or the empty range instead of undefined float→int conversions. A
/// non-finite AABB that is not an honest [-inf, +inf] cover (any NaN
/// coordinate) is rejected as empty.
TileRange candidate_cells(const ProjectedSplat& splat, const CellGrid& grid);

/// Calls visit(cell_index) for every cell the splat's footprint intersects
/// under `boundary`, enumerating candidates from the AABB range; returns the
/// number of boundary tests performed. Shared by bin_splats and the global
/// radix-sort path so both enumerate identical hit sets in identical order.
template <typename Visit>
std::size_t for_each_hit_cell(const ProjectedSplat& splat, const CellGrid& grid,
                              Boundary boundary, Visit&& visit) {
  const TileRange range = candidate_cells(splat, grid);
  if (range.empty()) return 0;
  std::size_t tests = 0;

  if (boundary == Boundary::kAabb) {
    // The AABB method *is* the candidate enumeration: every cell overlapping
    // the bounding box is a hit. Each candidate still costs one range check.
    for (int cy = range.ty0; cy < range.ty1; ++cy) {
      for (int cx = range.tx0; cx < range.tx1; ++cx) {
        ++tests;
        visit(grid.cell_index(cx, cy));
      }
    }
    return tests;
  }

  const Ellipse footprint = splat.footprint();
  // The OBB costs an eigen decomposition; only kObb reads it.
  const Obb obb = boundary == Boundary::kObb ? Obb::from_ellipse(footprint) : Obb{};
  for (int cy = range.ty0; cy < range.ty1; ++cy) {
    for (int cx = range.tx0; cx < range.tx1; ++cx) {
      const Rect rect = tile_rect(cx, cy, grid.cell_size, grid.image_width, grid.image_height);
      ++tests;
      const bool hit = boundary == Boundary::kObb ? obb_intersects(obb, rect)
                                                  : ellipse_intersects(footprint, rect);
      if (hit) visit(grid.cell_index(cx, cy));
    }
  }
  return tests;
}

}  // namespace gstg
