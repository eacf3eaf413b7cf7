// Packed-key stable LSD radix sorting, shared by both sorting paths:
// the baseline per-tile sort (render/sort.h) and the GS-TG group sort
// (core/grouping.h). Positive IEEE floats order identically to their
// bit patterns, so a (depth_bits, index) 64-bit key sorted ascending
// reproduces the (depth, original index) comparison order exactly — the
// radix and comparison paths are interchangeable and tested against each
// other.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"

namespace gstg {

/// Sorting algorithm selection for the per-cell / per-group sorts.
/// kAuto picks radix for lists of at least kRadixSortCutoff entries and
/// comparison sort below it (the radix histogram overhead dominates on tiny
/// lists); both produce identical orderings.
enum class SortAlgo : std::uint8_t { kAuto, kComparison, kRadix };

/// List length at which kAuto switches from comparison sort to radix sort.
inline constexpr std::size_t kRadixSortCutoff = 64;

/// True when `algo` resolves to the radix path for an n-entry list.
[[nodiscard]] constexpr bool use_radix_sort(SortAlgo algo, std::size_t n) {
  return algo == SortAlgo::kRadix || (algo == SortAlgo::kAuto && n >= kRadixSortCutoff);
}

/// Monotonic bit pattern of a positive float: d0 < d1 implies
/// bits(d0) < bits(d1). Depths are positive after near-plane culling.
[[nodiscard]] std::uint32_t depth_bits(float depth);

/// Packed key ordering by (depth, index) lexicographically: the depth's
/// monotonic bits shifted above the tiebreak index. Sorting these keys
/// ascending is exactly the comparison the per-cell/per-group sorts
/// perform. `index_bits` (default 32, the full width) compacts the index
/// half so the radix sort can skip impossible high digits — index must be
/// < 2^index_bits and depth_bits + index_bits must fit in 64.
[[nodiscard]] std::uint64_t pack_depth_index_key(float depth, std::uint32_t index,
                                                int index_bits = 32);

/// Index (low) half of a key packed with the default 32-bit index width.
[[nodiscard]] constexpr std::uint32_t key_index(std::uint64_t key) {
  return static_cast<std::uint32_t>(key);
}

/// Number of 8-bit LSD passes needed to cover the low `key_bits` bits.
[[nodiscard]] constexpr int radix_pass_count(int key_bits) { return (key_bits + 7) / 8; }

/// Width of a compacted (depth, index) key whose largest index is
/// `max_index`: the full 32 depth bits plus just enough index bits. The
/// sorts compute this once per call so the radix path skips passes that
/// can only see zero digits.
[[nodiscard]] constexpr int depth_index_key_bits(std::uint32_t max_index) {
  const int index_bits = std::bit_width(max_index);
  return 32 + (index_bits < 1 ? 1 : index_bits);
}

/// A sort record: 64-bit key plus a 64-bit payload that rides along
/// (the per-tile sort carries the splat id, the GS-TG group sort the tile
/// bitmask).
struct KeyValue {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Stable LSD radix sort of keys[0..n) ascending, 8-bit digits, processing
/// only the low `key_bits` bits (all higher bits must be zero). `tmp` is
/// grown as needed and reused across calls; the result is left in `keys`.
GSTG_HOT_NOALLOC
void radix_sort_keys(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& tmp,
                     std::size_t n, int key_bits);

/// Stable LSD radix sort of items[0..n) by key ascending, permuting the
/// payloads alongside. Same contract as radix_sort_keys.
GSTG_HOT_NOALLOC
void radix_sort_pairs(std::vector<KeyValue>& items, std::vector<KeyValue>& tmp, std::size_t n,
                      int key_bits);

/// Comparison-volume accounting of sorting one n-entry list under `algo`:
/// n x radix passes on the radix path, n log2 n on the comparison path, 0
/// when n <= 1 (nothing is sorted). The per-cell and per-group sorts sum it
/// in cell/group order after their parallel region, so the double total
/// does not depend on which worker sorted which list.
[[nodiscard]] double sort_volume(SortAlgo algo, std::size_t n, int key_bits);

/// Reusable buffers for one worker's sorting: key/payload records (both
/// paths) and the group path's snapshot of the unsorted tile masks.
struct SortWorkerScratch {
  std::vector<std::uint64_t> keys;
  std::vector<KeyValue> items, items_tmp;

  /// Room to sort a `max_list`-entry list on either path without growing.
  void reserve(std::size_t max_list) {
    keys.reserve(max_list);
    items.reserve(max_list);
    items_tmp.reserve(max_list);
  }
};

/// Per-frame sorting scratch: one slot per parallel worker, sized from
/// planned_worker_count so worker indices can never alias. Reused across
/// frames by the persistent renderer (zero steady-state allocations).
struct SortScratch {
  std::vector<SortWorkerScratch> workers;

  /// Ensures `worker_count` slots exist, each able to sort a
  /// `max_list`-entry list without growing: the pool hands lists to workers
  /// dynamically, so every slot must fit the longest one for a warmed frame
  /// to allocate nothing.
  void prepare(std::size_t worker_count, std::size_t max_list) {
    if (workers.size() < worker_count) workers.resize(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) workers[w].reserve(max_list);
  }
};

}  // namespace gstg
