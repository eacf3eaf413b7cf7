#include "render/sort.h"

#include <algorithm>

#include "common/parallel.h"

namespace gstg {

void sort_cell_lists(BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                     std::size_t threads, RenderCounters& counters, SortAlgo algo,
                     SortScratch* scratch) {
  const std::size_t cells = static_cast<std::size_t>(bins.grid.cell_count());

  // Per-worker buffers sized from the exact worker count, so a worker index
  // can never alias another slot.
  const std::size_t workers = planned_worker_count(cells, threads);
  SortScratch local_scratch;
  SortScratch& s = scratch != nullptr ? *scratch : local_scratch;
  s.prepare(workers, bins.max_cell_size());

  // Compact the key's index half to its true width so the radix path runs
  // the minimum number of passes (depth always needs its full 32 bits).
  std::uint32_t max_index = 0;
  for (const ProjectedSplat& splat : splats) max_index = std::max(max_index, splat.index);
  const int key_bits = depth_index_key_bits(max_index);
  const int index_bits = key_bits - 32;

  parallel_for_chunks(0, cells, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    SortWorkerScratch& ws = s.workers[worker];
    for (std::size_t c = lo; c < hi; ++c) {
      const std::uint32_t begin = bins.offsets[c];
      const std::uint32_t end = bins.offsets[c + 1];
      const std::size_t n = end - begin;
      if (n <= 1) continue;

      // Packed (depth_bits, index) keys order exactly as the comparator
      // below; the id payload rides along in the value half.
      if (ws.items.size() < n) ws.items.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t id = bins.splat_ids[begin + k];
        ws.items[k] = {pack_depth_index_key(splats[id].depth, splats[id].index, index_bits),
                       id};
      }
      if (use_radix_sort(algo, n)) {
        radix_sort_pairs(ws.items, ws.items_tmp, n, key_bits);
      } else {
        std::sort(ws.items.begin(), ws.items.begin() + static_cast<std::ptrdiff_t>(n),
                  [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
      }
      for (std::size_t k = 0; k < n; ++k) {
        bins.splat_ids[begin + k] = static_cast<std::uint32_t>(ws.items[k].value);
      }
    }
  }, threads, cell_grain(cells, threads));

  account_cell_sorts(bins, algo, key_bits, counters);
}

void account_cell_sorts(const BinnedSplats& bins, SortAlgo algo, int key_bits,
                        RenderCounters& counters) {
  const std::size_t cells = static_cast<std::size_t>(bins.grid.cell_count());
  double volume = 0.0;
  std::size_t pairs = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t n = bins.offsets[c + 1] - bins.offsets[c];
    pairs += n;
    volume += sort_volume(algo, n, key_bits);
  }
  counters.sort_comparison_volume += volume;
  counters.sort_pairs += pairs;
}

}  // namespace gstg
