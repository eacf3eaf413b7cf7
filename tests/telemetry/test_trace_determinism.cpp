// Telemetry is observational: RenderCounters and the framebuffer must be
// bit-identical with tracing on vs. off, in exact mode and across the
// multi-threaded path. This is the invariant that makes it safe to leave
// stage scopes in every pipeline stage.
//
// Every frame composer is an input: Renderer, TemporalRenderer (kOff and a
// warm kReuse frame) and render_baseline. The same runs also check the
// stage contract of telemetry::StageScope — each stage that ran has a
// positive time, the stage times never exceed the call's wall time, and a
// single-threaded traced frame carries exactly one span per stage under the
// names CI's trace checks require.
#include "core/renderer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "telemetry/trace.h"
#include "temporal/temporal_renderer.h"
#include "test_helpers.h"

namespace gstg {
namespace {

using testutil::make_camera;
using testutil::make_random_cloud;

bool images_identical(const Framebuffer& a, const Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() && max_abs_diff(a, b) == 0.0f;
}

bool counters_equal(const RenderCounters& a, const RenderCounters& b) {
  return a.visible_gaussians == b.visible_gaussians && a.tile_pairs == b.tile_pairs &&
         a.sort_pairs == b.sort_pairs && a.bitmask_tests == b.bitmask_tests &&
         a.filter_checks == b.filter_checks && a.alpha_computations == b.alpha_computations &&
         a.blend_ops == b.blend_ops && a.total_pixels == b.total_pixels;
}

/// One rendered frame plus the wall time of the call that produced it.
struct Frame {
  RenderResult result;
  double wall_ms = 0.0;
};

template <typename Fn>
Frame timed_frame(const Fn& render) {
  const auto begin = std::chrono::steady_clock::now();
  RenderResult result = render();
  const auto end = std::chrono::steady_clock::now();
  return {std::move(result), std::chrono::duration<double, std::milli>(end - begin).count()};
}

constexpr int kFrames = 2;  ///< per path: the second frame of a sequence is a warm one

/// A frame composer under test: its per-frame spans and kFrames renders of
/// one camera through one instance (so TemporalRenderer's second frame
/// reuses the first one's cache).
struct FramePath {
  const char* name;
  std::vector<const char*> spans;  ///< exactly one each per frame
  bool has_bitmask;
  std::function<std::vector<Frame>(const GaussianCloud&, const Camera&, std::size_t)> render;
};

std::vector<Frame> persistent_frames(const GaussianCloud& cloud, const Camera& camera,
                                     std::size_t threads) {
  GsTgConfig config;
  config.threads = threads;
  const Renderer renderer(config);
  FrameContext ctx;
  std::vector<Frame> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(timed_frame([&] {
      renderer.render(cloud, camera, ctx);
      return RenderResult{ctx.image, ctx.times, ctx.counters};
    }));
  }
  return frames;
}

std::vector<Frame> temporal_frames(const GaussianCloud& cloud, const Camera& camera,
                                   std::size_t threads, TemporalMode mode) {
  GsTgConfig config;
  config.threads = threads;
  config.temporal = mode;
  TemporalRenderer renderer(config);
  FrameContext ctx;
  std::vector<Frame> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(timed_frame([&] {
      renderer.render(cloud, camera, ctx);
      return RenderResult{ctx.image, ctx.times, ctx.counters};
    }));
  }
  // An unmoved camera must take the warm path on the second frame.
  if (mode == TemporalMode::kReuse) {
    EXPECT_GT(renderer.last_frame().groups_reused, 0u);
  }
  return frames;
}

std::vector<Frame> baseline_frames(const GaussianCloud& cloud, const Camera& camera,
                                   std::size_t threads) {
  RenderConfig config;
  config.threads = threads;
  std::vector<Frame> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(timed_frame([&] { return render_baseline(cloud, camera, config); }));
  }
  return frames;
}

std::vector<FramePath> frame_paths() {
  return {
      {"Renderer",
       {"frame", "preprocess", "binning", "bitmask", "sort_groups", "raster"},
       true,
       persistent_frames},
      {"TemporalRenderer kOff",
       {"frame", "preprocess", "binning", "bitmask", "temporal_sort", "raster"},
       true,
       [](const GaussianCloud& cloud, const Camera& camera, std::size_t threads) {
         return temporal_frames(cloud, camera, threads, TemporalMode::kOff);
       }},
      {"TemporalRenderer kReuse",
       {"frame", "preprocess", "binning", "bitmask", "temporal_sort", "snapshot_cache", "raster"},
       true,
       [](const GaussianCloud& cloud, const Camera& camera, std::size_t threads) {
         return temporal_frames(cloud, camera, threads, TemporalMode::kReuse);
       }},
      {"render_baseline",
       {"baseline_frame", "preprocess", "binning", "sort_tiles", "raster"},
       false,
       baseline_frames},
  };
}

/// Every stage that ran reports a positive time, and the stage times sum to
/// no more than the wall time of the call.
void expect_stage_times(const FramePath& path, const Frame& frame) {
  const StageTimes& t = frame.result.times;
  EXPECT_GT(t.preprocess_ms, 0.0);
  EXPECT_GT(t.sort_ms, 0.0);
  EXPECT_GT(t.raster_ms, 0.0);
  if (path.has_bitmask) {
    EXPECT_GT(t.bitmask_ms, 0.0);
  } else {
    EXPECT_EQ(t.bitmask_ms, 0.0);
  }
  EXPECT_LE(t.total_ms(), frame.wall_ms);
}

std::size_t count_span_begins(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\", \"ph\": \"B\"";
  std::size_t n = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

std::string written_trace() {
  const std::string path = ::testing::TempDir() + "gstg_trace_stages.json";
  telemetry::TraceSession::global().write(path);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_tracing_invisible(std::size_t threads) {
  const GaussianCloud cloud = make_random_cloud(900, 21);
  const Camera camera = make_camera();

  for (const FramePath& path : frame_paths()) {
    SCOPED_TRACE(path.name);
    telemetry::TraceSession::global().stop();
    const std::vector<Frame> off = path.render(cloud, camera, threads);

    telemetry::TraceSession::global().start();
    const std::vector<Frame> on = path.render(cloud, camera, threads);
    telemetry::TraceSession::global().stop();

    for (int f = 0; f < kFrames; ++f) {
      SCOPED_TRACE("frame " + std::to_string(f));
      EXPECT_TRUE(images_identical(off[f].result.image, on[f].result.image))
          << "framebuffer diverged under tracing";
      EXPECT_TRUE(counters_equal(off[f].result.counters, on[f].result.counters))
          << "counters diverged under tracing";
      expect_stage_times(path, off[f]);
      expect_stage_times(path, on[f]);
    }

    // One thread records every span, so the per-name totals are exact.
    if (threads == 1) {
      const std::string json = written_trace();
      for (const char* span : path.spans) {
        EXPECT_EQ(count_span_begins(json, span), static_cast<std::size_t>(kFrames)) << span;
      }
    }
  }
}

TEST(TraceDeterminism, ExactModeBitIdenticalTracingOnVsOff) { expect_tracing_invisible(1); }

TEST(TraceDeterminism, MultiThreadedBitIdenticalTracingOnVsOff) { expect_tracing_invisible(4); }

TEST(TraceDeterminism, ConfigTraceFlagLeavesOutputBitIdentical) {
  const GaussianCloud cloud = make_random_cloud(600, 5);
  const Camera camera = make_camera();

  telemetry::TraceSession::global().stop();
  GsTgConfig plain;
  plain.threads = 2;
  const RenderResult reference = render_gstg(cloud, camera, plain);

  GsTgConfig traced = plain;
  traced.trace = true;  // Renderer ctor starts the global session
  const Renderer renderer(traced);
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);
  EXPECT_TRUE(telemetry::TraceSession::global().active());
  telemetry::TraceSession::global().stop();

  EXPECT_TRUE(images_identical(reference.image, ctx.image));
  EXPECT_TRUE(counters_equal(reference.counters, ctx.counters));
  EXPECT_GT(telemetry::TraceSession::global().stats().recorded, 0u)
      << "config.trace produced no spans";
}

}  // namespace
}  // namespace gstg
