#include "render/sort_keys.h"

#include <array>
#include <bit>
#include <cmath>

namespace gstg {

std::uint32_t depth_bits(float depth) { return std::bit_cast<std::uint32_t>(depth); }

std::uint64_t pack_depth_index_key(float depth, std::uint32_t index, int index_bits) {
  return (static_cast<std::uint64_t>(depth_bits(depth)) << index_bits) | index;
}

double sort_volume(SortAlgo algo, std::size_t n, int key_bits) {
  if (n <= 1) return 0.0;
  const double entries = static_cast<double>(n);
  return use_radix_sort(algo, n) ? entries * radix_pass_count(key_bits)
                                 : entries * std::log2(entries);
}

namespace {

// One LSD pass per 8-bit digit: histogram, exclusive prefix, stable scatter.
// KeyOf extracts the sort key from an element so the same loop serves both
// the keys-only and the key/payload arrays.
template <typename Elem, typename KeyOf>
void radix_sort_impl(std::vector<Elem>& elems, std::vector<Elem>& tmp, std::size_t n,
                     int key_bits, const KeyOf& key_of) {
  if (n <= 1) return;
  if (tmp.size() < n) tmp.resize(n);
  const int passes = radix_pass_count(key_bits);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    std::array<std::size_t, 256> histogram{};
    for (std::size_t k = 0; k < n; ++k) {
      ++histogram[(key_of(elems[k]) >> shift) & 0xffu];
    }
    std::size_t running = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      const std::size_t count = histogram[d];
      histogram[d] = running;
      running += count;
    }
    for (std::size_t k = 0; k < n; ++k) {
      tmp[histogram[(key_of(elems[k]) >> shift) & 0xffu]++] = elems[k];
    }
    elems.swap(tmp);  // result of every pass ends in `elems`
  }
}

}  // namespace

void radix_sort_keys(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& tmp,
                     std::size_t n, int key_bits) {
  radix_sort_impl(keys, tmp, n, key_bits, [](std::uint64_t k) { return k; });
}

void radix_sort_pairs(std::vector<KeyValue>& items, std::vector<KeyValue>& tmp, std::size_t n,
                      int key_bits) {
  radix_sort_impl(items, tmp, n, key_bits, [](const KeyValue& kv) { return kv.key; });
}

}  // namespace gstg
