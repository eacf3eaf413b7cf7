// The benchmark's workloads and the report they fill. See README.md for the
// workload definitions and what each metric should move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "camera/camera.h"
#include "core/gstg_config.h"
#include "render/framebuffer.h"
#include "render/types.h"
#include "scene/scene.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, the operation tally, the
/// metrics, and informational fields printed on a separate line.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;    ///< correctness failures
  std::vector<std::string> failures;  ///< operations that threw or returned an error status

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Correctness gate: records a failure (and fails the run) unless `ok`.
  bool expect(bool ok, const std::string& what);
  /// Gate on bit-identical images.
  bool expect_identical(const gstg::Framebuffer& a, const gstg::Framebuffer& b,
                        const std::string& what);
};

/// One benchmark workload: the scene and scale its frames render at, the
/// intra-frame thread count, and which timed loop runs.
struct WorkloadSpec {
  std::string name;
  std::string scene;
  gstg::RunScale scale;
  std::size_t frame_threads = 2;
  bool served = false;  ///< serve_mixed: the RenderService client mix
};

/// One of the three workloads; throws std::invalid_argument on an unknown
/// name.
const WorkloadSpec& workload_spec(const std::string& name);

/// Small scale, named explicitly so GSTG_SCALE never reaches scene
/// generation.
gstg::RunScale small_scale();

/// GS-TG configuration with tile/group geometry, boundaries, sort algorithm
/// and thread count pinned; the mode knobs keep their shipping defaults
/// (GSTG_* overrides are refused, so nothing else can change them).
gstg::GsTgConfig explicit_config(std::size_t threads);

/// Seeded orbit of `views` distinct cameras around the scene's evaluation
/// viewpoint: the seed sets the orbit phase and a per-view angular and
/// height jitter. The orbit always covers one full turn.
std::vector<gstg::Camera> orbit_views(const gstg::Scene& scene, int views, std::uint64_t seed);

/// Seeded tour for a session stream: keyframes on a full orbit (seeded
/// phase), sampled with 2 hold and 2 move frames per keyframe.
std::vector<gstg::Camera> session_tour(const gstg::Scene& scene, std::uint64_t seed);

/// Field-by-field RenderCounters equality (sort_comparison_volume bitwise).
bool counters_equal(const gstg::RenderCounters& a, const gstg::RenderCounters& b);

/// End-to-end run (--trace 0): every end-to-end metric.
void run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed, double seconds, Report& report);

/// Traced run (--trace 1): every per-layer metric. `trace_file`, when not
/// empty, receives the run's spans as Chrome trace-event JSON.
void run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                const std::string& trace_file, Report& report);

}  // namespace perfbench
