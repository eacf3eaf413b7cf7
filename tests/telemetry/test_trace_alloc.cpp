// Zero-steady-state-allocation guarantee with tracing ENABLED: after a
// thread's ring exists and the renderer's FrameContext is warm, recording
// spans must not allocate. Companion to tests/core/test_renderer.cpp's
// SteadyStateAllocatesNothing, which covers the same render path with
// tracing off; the counter idiom (and the GCC pragma rationale) is shared.
#include "core/renderer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/parallel.h"
#include "telemetry/trace.h"
#include "test_helpers.h"

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

TEST(TraceAlloc, SteadyStateSpanRecordingDoesNotAllocate) {
  telemetry::TraceSession::global().start();

  // Warm: the first event allocates this thread's ring; nothing after may.
  { GSTG_SPAN("warm"); }
  telemetry::emit_counter("warm_counter", 1.0);
  telemetry::emit_instant("warm_instant");

  const std::size_t before = g_alloc_count.load();
  for (int i = 0; i < 10000; ++i) {
    GSTG_SPAN("steady");
    telemetry::emit_counter("steady_counter", static_cast<double>(i));
    telemetry::emit_instant("steady_instant");
  }
  const std::size_t after = g_alloc_count.load();
  telemetry::TraceSession::global().stop();
  EXPECT_EQ(after - before, 0u) << "span recording allocated in the steady state";
}

// Each thread that records a span owns a ring that lives for the rest of
// the process. Multi-threaded frames must reuse the pool's parked helpers
// (one ring each) rather than spawn fresh threads, which registered ~2 new
// rings per frame when every parallel stage started its own threads. The
// bound is checked after every frame rather than as "no growth after frame
// 2": a helper that claimed no chunk in the first frames registers its one
// ring later, which is within the bound.
TEST(TraceAlloc, MultiThreadedFramesReuseTheirThreadRings) {
  telemetry::TraceSession::global().start();
  const GaussianCloud cloud = make_random_cloud(700, 99);
  const Camera camera = make_camera();
  GsTgConfig config;
  config.threads = 4;
  const Renderer renderer(config);
  const std::size_t rings_before = telemetry::TraceSession::global().stats().threads;

  FrameContext ctx;
  for (int frame = 1; frame <= 10; ++frame) {
    renderer.render(cloud, camera, ctx);
    // The calling thread plus the pool's helpers, and no more.
    EXPECT_LE(telemetry::TraceSession::global().stats().threads,
              rings_before + 1 + detail::pool_helper_count())
        << "frame " << frame;
  }
  telemetry::TraceSession::global().stop();
  EXPECT_LE(detail::pool_helper_count(), 3u) << "the pool grew past threads - 1 helpers";
}

TEST(TraceAlloc, WarmRendererFrameWithTracingOnDoesNotAllocate) {
  telemetry::TraceSession::global().start();

  const GaussianCloud cloud = make_random_cloud(700, 99);
  const Camera camera = make_camera();
  GsTgConfig config;
  config.threads = 1;  // worker threads would allocate their own state
  const Renderer renderer(config);

  FrameContext ctx;
  renderer.render(cloud, camera, ctx);  // warm-up: buffers + this thread's ring
  renderer.render(cloud, camera, ctx);

  const std::size_t before = g_alloc_count.load();
  renderer.render(cloud, camera, ctx);
  const std::size_t after = g_alloc_count.load();
  telemetry::TraceSession::global().stop();
  EXPECT_EQ(after - before, 0u) << "instrumented render allocated with tracing on";
}

}  // namespace
}  // namespace gstg
