// Tile-wise (or group-wise) depth sorting: orders every cell's splat list
// front-to-back. The per-cell list sizes are the paper's "redundant sorting"
// quantity — a splat in k cells is sorted k times.
#pragma once

#include <span>

#include "common/annotations.h"
#include "render/binning.h"
#include "render/sort_keys.h"
#include "render/types.h"

namespace gstg {

/// Sorts each cell list of `bins` in place by (depth, original index)
/// ascending — the index tiebreak makes the order total and deterministic.
/// `algo` selects comparison or packed-key radix sorting per list (identical
/// orderings; see render/sort_keys.h). `scratch` reuses one SortScratch
/// across frames; pass nullptr for a self-contained call. Accumulates
/// sort_pairs and sort_comparison_volume into `counters`.
GSTG_HOT_NOALLOC
void sort_cell_lists(BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                     std::size_t threads, RenderCounters& counters,
                     SortAlgo algo = SortAlgo::kAuto, SortScratch* scratch = nullptr);

/// Adds the accounting of sorting every cell list of `bins` under `algo`
/// (key width `key_bits`) to `counters`: sort_pairs counts every entry,
/// sort_comparison_volume sums sort_volume per list in cell order, so the
/// double total is the same whichever worker sorted which list.
void account_cell_sorts(const BinnedSplats& bins, SortAlgo algo, int key_bits,
                        RenderCounters& counters);

}  // namespace gstg
