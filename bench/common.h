// Shared infrastructure for the benchmark binaries: per-process scene cache
// (scenes are deterministic, so generating once per binary is sound) and
// small helpers for the paper-shaped output tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/runconfig.h"
#include "render/framebuffer.h"
#include "render/types.h"
#include "scene/scene.h"

namespace gstg::benchutil {

/// Scenes used by the algorithm-evaluation figures (paper section VI-B).
inline const std::vector<std::string>& algo_scene_names() {
  static const std::vector<std::string> names = {"train", "truck", "drjohnson", "playroom"};
  return names;
}

/// All six scenes (hardware evaluation, Figs. 14/15).
inline const std::vector<std::string>& all_scene_names() {
  static const std::vector<std::string> names = {"train",    "truck",  "drjohnson",
                                                 "playroom", "rubble", "residence"};
  return names;
}

/// Generates each scene at most once per process at the env-selected scale.
inline const Scene& cached_scene(const std::string& name) {
  static std::map<std::string, Scene> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  return cache.emplace(name, generate_scene(name)).first->second;
}

/// Comma-separated list -> items (empty fields dropped), for --scenes=...
/// flags. Shared by the JSON drivers (run_all, bench_simd, bench_temporal).
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = (comma == std::string::npos) ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Peak resident set size of this process in bytes, or 0 when unavailable.
/// Primary source is getrusage (ru_maxrss: kilobytes on Linux, bytes on
/// macOS); Linux falls back to VmHWM in /proc/self/status when getrusage
/// reports nothing. Recorded as `peak_rss_bytes` in every bench JSON — the
/// memory half of the full-scale-scene readiness question (ROADMAP item 1).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
  }
#endif
#if defined(__linux__)
  // Fallback: VmHWM ("high water mark") from /proc/self/status, in kB.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0 &&
          std::sscanf(line + 6, "%llu", reinterpret_cast<unsigned long long*>(&kb)) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kb > 0) return kb * 1024u;
  }
#endif
  return 0;
}

/// Banner describing the workload scale, printed by every bench binary so
/// recorded outputs are self-describing.
inline void print_scale_banner(const char* what) {
  const RunScale scale = run_scale_from_env();
  std::printf("# %s | scale: resolution /%d, Gaussians /%d%s (set GSTG_SCALE=full for paper scale)\n",
              what, scale.resolution_divisor, scale.gaussian_divisor,
              scale.is_full() ? " [paper scale]" : "");
}

/// Bitwise framebuffer equality (memcmp over the pixels, so -0/+0 and NaN
/// payloads count as differences — the SIMD backends' contract is bits).
inline bool images_bit_identical(const Framebuffer& a, const Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(), a.pixels().size() * sizeof(Vec3)) == 0;
}

/// Byte equality of two splat streams. ProjectedSplat is one 64-byte record
/// with no padding, so memcmp compares representations.
inline bool splats_bit_identical(const std::vector<ProjectedSplat>& a,
                                 const std::vector<ProjectedSplat>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(ProjectedSplat)) == 0);
}

/// Equality of the work counters a frame's splat stream determines (every
/// field the determinism checks compare; timings are not counters).
inline bool counters_equal(const RenderCounters& a, const RenderCounters& b) {
  return a.visible_gaussians == b.visible_gaussians && a.tile_pairs == b.tile_pairs &&
         a.sort_pairs == b.sort_pairs && a.bitmask_tests == b.bitmask_tests &&
         a.filter_checks == b.filter_checks && a.alpha_computations == b.alpha_computations &&
         a.blend_ops == b.blend_ops && a.total_pixels == b.total_pixels;
}

}  // namespace gstg::benchutil
