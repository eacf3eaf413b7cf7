// Measurement arithmetic of the benchmark: sample statistics, parallel
// efficiency, clocks, seeded generation and image identity. Header-only so
// the self-test checks exactly the code the workloads run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <ctime>

#include "render/framebuffer.h"

namespace perfbench {

/// Percentile of an unsorted sample by linear interpolation between closest
/// ranks: rank = p * (n - 1), the method of numpy's default and of Python's
/// statistics.quantiles(method="inclusive"). p in [0, 1]; throws on an
/// empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Samples strictly above the p-th percentile: how many observations a
/// tail percentile rests on.
inline std::size_t samples_beyond(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

/// Parallel efficiency of a stage: CPU time it consumed over the CPU time
/// `threads` fully busy workers would have had during its wall-clock time.
/// 1.0 = every worker busy for the whole stage; 1/threads = serial.
inline double par_eff(double cpu_ns, double wall_ns, std::size_t threads) {
  if (wall_ns <= 0.0 || threads == 0) return 0.0;
  return cpu_ns / (wall_ns * static_cast<double>(threads));
}

inline double ns_per(double wall_ns, double count) { return count > 0.0 ? wall_ns / count : 0.0; }

/// Monotonic wall clock and process CPU clock in nanoseconds.
inline double wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}
inline double cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Wall and process-CPU time of one call.
struct Sample {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
};
template <typename Fn>
Sample measure(Fn&& fn) {
  const double w0 = wall_ns();
  const double c0 = cpu_ns();
  fn();
  const double c1 = cpu_ns();
  const double w1 = wall_ns();
  return {w1 - w0, c1 - c0};
}

/// SplitMix64: the benchmark's own portable seeded generator, so the same
/// --seed gives the same cameras on every standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// FNV-1a-style hash over the image's raw float bits, one 32-bit word per
/// step: equal hashes for bit-identical images. Service responses are
/// compared by hash after the run, so client threads keep no
/// image copies.
inline std::uint64_t image_hash(const gstg::Framebuffer& fb) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint32_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint32_t>(fb.width()));
  mix(static_cast<std::uint32_t>(fb.height()));
  for (const gstg::Vec3& px : fb.pixels()) {
    for (const float channel : {px.x, px.y, px.z}) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &channel, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Bit-level image equality (not operator== on floats: -0/0 and NaN
/// payloads count as differences).
inline bool images_identical(const gstg::Framebuffer& a, const gstg::Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size() * sizeof(gstg::Vec3)) == 0;
}

}  // namespace perfbench
