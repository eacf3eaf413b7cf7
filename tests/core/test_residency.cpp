// Compressed residency (core/renderer.h + gaussian/compressed.h): the
// streamed block-decode render produces the splat stream, image and
// counters of the plain render of the decoded cloud on every bench scene,
// across thread counts and SIMD backends, with an allocation-free steady
// state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/renderer.h"
#include "gaussian/compressed.h"
#include "render/simd_kernels.h"
#include "scene/scene.h"
#include "test_helpers.h"

// Global allocation counter, as in tests/core/test_renderer.cpp; see there
// for the GCC diagnostic rationale.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

GsTgConfig config_with(std::size_t threads = 1) {
  GsTgConfig config;
  config.threads = threads;
  return config;
}

/// Byte equality of two splat streams. ProjectedSplat is one 64-byte record
/// with no padding (static_assert in render/types.h), so memcmp compares
/// representations: -0 vs 0 and NaN payloads count as differences.
bool splats_identical(const std::vector<ProjectedSplat>& a, const std::vector<ProjectedSplat>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(ProjectedSplat)) == 0);
}

TEST(Residency, StreamedDecodeMatchesUpFrontDecodeOnBenchScenes) {
  // The compressed overload streams fp16 blocks through per-worker decode
  // scratch; its float32 reference is the plain render of the decoded
  // cloud. The compressed path changes residency, never the image.
  for (const SceneInfo& info : algorithm_scenes()) {
    const Scene scene = generate_scene(info);
    const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);
    const Renderer renderer(config_with());

    FrameContext streamed;
    renderer.render(compressed, scene.camera, streamed);
    FrameContext upfront;
    renderer.render(compressed.decode(), scene.camera, upfront);
    EXPECT_TRUE(images_identical(streamed.image, upfront.image)) << info.name;
    EXPECT_TRUE(counters_equal(streamed.counters, upfront.counters)) << info.name;
  }
}

TEST(Residency, KVerifyPassesOnAllBenchScenes) {
  // The audit the former in-process verify residency mode ran, as a test:
  // the streamed splat stream must match the up-front-decode one byte for
  // byte — downstream stages are deterministic in it — and so must the
  // image and counters, on every bench scene, thread count and SIMD backend.
  for (const SceneInfo& info : algorithm_scenes()) {
    const Scene scene = generate_scene(info);
    const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);
    const GaussianCloud decoded = compressed.decode();

    for (const SimdBackend backend : available_simd_backends()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        GsTgConfig config = config_with(threads);
        config.simd = backend;
        const Renderer renderer(config);
        FrameContext streamed;
        renderer.render(compressed, scene.camera, streamed);
        FrameContext upfront;
        renderer.render(decoded, scene.camera, upfront);

        const std::string where =
            info.name + " " + to_string(backend) + " threads=" + std::to_string(threads);
        ASSERT_GT(streamed.splats.size(), 0u) << where;
        EXPECT_TRUE(splats_identical(streamed.splats, upfront.splats)) << where;
        EXPECT_TRUE(images_identical(streamed.image, upfront.image)) << where;
        EXPECT_TRUE(counters_equal(streamed.counters, upfront.counters)) << where;
      }
    }
  }
}

TEST(Residency, StreamedRenderDeterministicAcrossThreadsAndBackends) {
  const Scene scene = generate_scene("train");
  const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);

  GsTgConfig reference_config = config_with();
  reference_config.simd = SimdBackend::kScalar;
  FrameContext reference;
  Renderer(reference_config).render(compressed, scene.camera, reference);

  for (const SimdBackend backend : available_simd_backends()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      GsTgConfig config = config_with(threads);
      config.simd = backend;
      FrameContext got;
      Renderer(config).render(compressed, scene.camera, got);
      EXPECT_TRUE(images_identical(reference.image, got.image))
          << to_string(backend) << " threads=" << threads;
      EXPECT_TRUE(counters_equal(reference.counters, got.counters))
          << to_string(backend) << " threads=" << threads;
    }
  }
}

TEST(Residency, ContextReuseAcrossResidencyModesIsBitIdentical) {
  // One context alternating between the float32 and the fp16 overload must
  // keep producing the reference frame: scratch from one resident form
  // cannot leak into the other.
  const GaussianCloud cloud = make_random_cloud(800, 7);
  const CompressedCloud compressed = CompressedCloud::encode(cloud);
  const GaussianCloud decoded = compressed.decode();
  const Camera camera = make_camera(192, 128);
  const Renderer renderer(config_with());

  FrameContext reference;
  renderer.render(compressed, camera, reference);

  FrameContext reused;
  const auto expect_reference = [&](const char* form) {
    EXPECT_TRUE(splats_identical(reference.splats, reused.splats)) << form;
    EXPECT_TRUE(images_identical(reference.image, reused.image)) << form;
    EXPECT_TRUE(counters_equal(reference.counters, reused.counters)) << form;
  };
  for (int round = 0; round < 2; ++round) {
    renderer.render(decoded, camera, reused);
    expect_reference("float32");
    renderer.render(compressed, camera, reused);
    expect_reference("fp16");
  }
}

TEST(Residency, SteadyStateStreamedRenderAllocatesNothing) {
  // The point of decode-on-touch residency: after warm-up, rendering from
  // the fp16 form allocates nothing — the whole-cloud fp32 form never
  // materialises and the per-worker block scratch is reused.
  const CompressedCloud compressed = CompressedCloud::encode(make_random_cloud(700, 99));
  const Camera camera = make_camera();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const Renderer renderer(config_with(threads));

    FrameContext ctx;
    renderer.render(compressed, camera, ctx);  // warm-up: grow every buffer
    renderer.render(compressed, camera, ctx);

    for (int frame = 0; frame < 3; ++frame) {
      const std::size_t before = g_alloc_count.load();
      renderer.render(compressed, camera, ctx);
      const std::size_t after = g_alloc_count.load();
      EXPECT_EQ(after - before, 0u) << "steady-state compressed render allocated, threads="
                                    << threads;
    }
  }
}

}  // namespace
}  // namespace gstg
