// RenderService: every response is bit-identical to a sequential
// render_gstg of the same request (the verify gate audits it), malformed
// requests and broken scenes resolve with typed errors instead of killing
// the process, the bounded queue applies backpressure, and concurrent
// client streams stay deterministic (this suite runs under TSan via the
// `service` label).
#include "service/render_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/renderer.h"
#include "env_guard.h"
#include "gaussian/ply_io.h"
#include "temporal/temporal_renderer.h"
#include "test_helpers.h"

namespace gstg {
namespace {

using testutil::make_camera;
using testutil::make_random_cloud;

ServiceConfig small_service_config() {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.scene_capacity = 2;
  config.max_batch = 8;
  config.verify = true;  // every test render runs the bit-identity audit
  return config;
}

SceneCache::Loader fixed_cloud_loader(std::size_t n = 400) {
  return [n](const std::string& key) {
    return make_random_cloud(n, static_cast<unsigned>(key.size() + 1));
  };
}

/// The sequential reference the service must match bit-for-bit.
Framebuffer sequential_reference(const GaussianCloud& cloud, const Camera& camera,
                                 const ServiceConfig& config) {
  GsTgConfig reference = config.render;
  reference.temporal = TemporalMode::kOff;
  return render_gstg(cloud, camera, reference).image;
}

TEST(RenderService, StatelessRequestsBitIdenticalToSequential) {
  const ServiceConfig config = small_service_config();
  RenderService service(config, fixed_cloud_loader());
  const GaussianCloud cloud = fixed_cloud_loader()("scene");

  std::vector<Camera> cameras;
  std::vector<std::future<RenderResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    cameras.push_back(make_camera(96 + 16 * i, 64 + 8 * i));
    futures.push_back(service.submit(RenderRequest{"scene", cameras.back(), 0}));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    RenderResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.error;
    const Framebuffer reference = sequential_reference(cloud, cameras[i], config);
    EXPECT_EQ(max_abs_diff(reference, response.image), 0.0f) << "request " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_completed, 6u);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.verify_mismatches, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);  // load-once
  // The scene resolves once per batch: every dispatch after the first hits.
  EXPECT_EQ(stats.cache_hits + 1, stats.batches);
}

TEST(RenderService, SessionStreamReusesSortsAndStaysExact) {
  const ServiceConfig config = small_service_config();
  RenderService service(config, fixed_cloud_loader());
  const GaussianCloud cloud = fixed_cloud_loader()("scene");
  const Camera camera = make_camera(128, 96);
  const Framebuffer reference = sequential_reference(cloud, camera, config);

  std::size_t reused_groups = 0;
  for (int frame = 0; frame < 4; ++frame) {
    RenderResponse response = service.submit(RenderRequest{"scene", camera, 7}).get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(max_abs_diff(reference, response.image), 0.0f) << "frame " << frame;
    reused_groups += response.temporal.groups_reused;
  }
  // A static camera stream reuses cached group orders from frame 1 on.
  EXPECT_GT(reused_groups, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.reuse_pairs, 0u);
  EXPECT_EQ(stats.verify_mismatches, 0u);
  EXPECT_EQ(stats.sessions, 1u);
}

TEST(RenderService, ConcurrentClientStreamsDeterministic) {
  const ServiceConfig config = small_service_config();
  RenderService service(config, fixed_cloud_loader());
  const GaussianCloud cloud = fixed_cloud_loader()("scene");

  constexpr int kClients = 4;
  constexpr int kFrames = 5;
  std::vector<Camera> cameras;
  for (int c = 0; c < kClients; ++c) cameras.push_back(make_camera(96 + 8 * c, 72));

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const Framebuffer reference = sequential_reference(cloud, cameras[c], config);
      std::vector<std::future<RenderResponse>> futures;
      for (int f = 0; f < kFrames; ++f) {
        futures.push_back(
            service.submit(RenderRequest{"scene", cameras[c], static_cast<std::uint64_t>(c + 1)}));
      }
      for (auto& future : futures) {
        RenderResponse response = future.get();
        if (!response.ok() || max_abs_diff(reference, response.image) != 0.0f) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_completed, static_cast<std::size_t>(kClients * kFrames));
  EXPECT_EQ(stats.verify_mismatches, 0u);
  EXPECT_EQ(stats.sessions, static_cast<std::size_t>(kClients));
  EXPECT_EQ(stats.cache_misses, 1u);  // all clients share one resident scene
}

TEST(RenderService, BackpressureRejectsWithTypedErrorWhenFull) {
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> signalled{false};
  ServiceConfig config = small_service_config();
  config.workers = 1;
  config.queue_capacity = 2;
  config.verify = false;
  RenderService service(config, [&](const std::string& key) {
    if (!signalled.exchange(true)) entered.set_value();
    gate_future.wait();
    return make_random_cloud(64, static_cast<unsigned>(key.size()));
  });

  const Camera camera = make_camera(64, 48);
  // r1 is dequeued by the single worker, which then blocks inside the scene
  // load; r2/r3 fill the bounded queue deterministically.
  auto r1 = service.submit(RenderRequest{"scene", camera, 0});
  entered.get_future().wait();
  auto r2 = service.submit(RenderRequest{"scene", camera, 0});
  auto r3 = service.submit(RenderRequest{"scene", camera, 0});
  auto r4 = service.try_submit(RenderRequest{"scene", camera, 0});

  RenderResponse rejected = r4.get();  // resolves immediately, queue untouched
  EXPECT_EQ(rejected.status, ServiceStatus::kQueueFull);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  gate.set_value();
  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  EXPECT_TRUE(r3.get().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_rejected, 1u);
  EXPECT_EQ(stats.requests_completed, 3u);
  EXPECT_EQ(stats.peak_queue_depth, 2u);
}

TEST(RenderService, SameSessionRequestsBatchOntoOneDispatch) {
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> signalled{false};
  ServiceConfig config = small_service_config();
  config.workers = 1;
  config.verify = false;
  RenderService service(config, [&](const std::string& key) {
    if (!signalled.exchange(true)) entered.set_value();
    gate_future.wait();
    return make_random_cloud(64, static_cast<unsigned>(key.size()));
  });

  const Camera camera = make_camera(64, 48);
  auto r1 = service.submit(RenderRequest{"scene", camera, 9});
  entered.get_future().wait();  // worker took [r1] and is loading
  auto r2 = service.submit(RenderRequest{"scene", camera, 9});
  auto r3 = service.submit(RenderRequest{"scene", camera, 9});
  auto r4 = service.submit(RenderRequest{"scene", camera, 9});
  gate.set_value();
  for (auto* f : {&r1, &r2, &r3, &r4}) EXPECT_TRUE(f->get().ok());

  // Deterministic schedule: batch 1 = [r1]; r2..r4 queue behind the busy
  // session and dispatch as one batch once it frees.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_EQ(stats.batched_requests, 3u);
}

TEST(RenderService, CacheEvictionUnderCapacityPressure) {
  std::atomic<int> loads{0};
  ServiceConfig config = small_service_config();
  config.workers = 1;
  config.scene_capacity = 1;
  config.verify = false;
  RenderService service(config, [&](const std::string& key) {
    ++loads;
    return make_random_cloud(64, static_cast<unsigned>(key.size()));
  });

  const Camera camera = make_camera(64, 48);
  // Alternating scenes with capacity 1: every switch reloads.
  EXPECT_TRUE(service.submit(RenderRequest{"a", camera, 0}).get().ok());
  EXPECT_TRUE(service.submit(RenderRequest{"bb", camera, 0}).get().ok());
  EXPECT_TRUE(service.submit(RenderRequest{"a", camera, 0}).get().ok());
  EXPECT_EQ(loads.load(), 3);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_evictions, 2u);
  EXPECT_EQ(stats.cache_misses, 3u);
}

TEST(RenderService, SessionCapEvictsIdleStreamsNotMemory) {
  // A stream of unique session ids must not grow the resident session set
  // beyond the cap: stale idle sessions are evicted (and cold-start on a
  // comeback), so session scratch cannot exhaust memory.
  ServiceConfig config = small_service_config();
  config.workers = 1;
  config.session_capacity = 2;
  config.verify = false;
  RenderService service(config, fixed_cloud_loader());
  const GaussianCloud cloud = fixed_cloud_loader()("scene");
  const Camera camera = make_camera(64, 48);
  const Framebuffer reference = sequential_reference(cloud, camera, config);

  for (std::uint64_t s = 1; s <= 6; ++s) {
    RenderResponse response = service.submit(RenderRequest{"scene", camera, s}).get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(max_abs_diff(reference, response.image), 0.0f) << "session " << s;
  }
  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.sessions, 2u);
  EXPECT_EQ(stats.sessions_evicted, 4u);
}

TEST(RenderService, InvalidRequestsResolveWithTypedErrors) {
  RenderService service(small_service_config(), fixed_cloud_loader());

  // Empty scene id.
  RenderResponse empty_scene = service.submit(RenderRequest{"", make_camera(64, 48), 0}).get();
  EXPECT_EQ(empty_scene.status, ServiceStatus::kInvalidRequest);
  EXPECT_NE(empty_scene.error.find("scene"), std::string::npos);

  // Non-finite camera pose.
  Mat4 pose = look_at({0.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 0.0f});
  pose.m[0][3] = std::numeric_limits<float>::quiet_NaN();
  const Camera nan_camera(64, 48, 60.0f, 60.0f, 32.0f, 24.0f, pose);
  RenderResponse nan_pose = service.submit(RenderRequest{"scene", nan_camera, 0}).get();
  EXPECT_EQ(nan_pose.status, ServiceStatus::kInvalidRequest);
  EXPECT_NE(nan_pose.error.find("non-finite"), std::string::npos);

  // Image size beyond the service limit.
  const Camera huge = make_camera(kMaxImageDim + 1, 64);
  RenderResponse oversize = service.submit(RenderRequest{"scene", huge, 0}).get();
  EXPECT_EQ(oversize.status, ServiceStatus::kInvalidRequest);
  EXPECT_NE(oversize.error.find("exceeds"), std::string::npos);

  // The service keeps serving valid requests afterwards.
  EXPECT_TRUE(service.submit(RenderRequest{"scene", make_camera(64, 48), 0}).get().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_rejected, 3u);
  EXPECT_EQ(stats.requests_completed, 1u);
}

TEST(RenderService, RetiredFastTierIsATypedRejection) {
  const ServiceConfig config = small_service_config();
  RenderService service(config, fixed_cloud_loader());
  const GaussianCloud cloud = fixed_cloud_loader()("scene");
  const Camera camera = make_camera(64, 48);

  // Stateless or in a session stream: the retired flag is rejected with a
  // typed error naming it, never silently rendered through the exact path.
  for (const std::uint64_t session : {std::uint64_t{0}, std::uint64_t{9}}) {
    RenderRequest request{"scene", camera, session};
    request.fast_tier = true;
    const RenderResponse rejected = service.submit(request).get();
    EXPECT_EQ(rejected.status, ServiceStatus::kInvalidRequest) << "session " << session;
    EXPECT_NE(rejected.error.find("fast_tier"), std::string::npos) << rejected.error;
  }
  EXPECT_EQ(service.stats().requests_rejected, 2u);

  // The service keeps serving: the same requests without the flag render
  // exact, bit-identical to the sequential reference.
  for (const std::uint64_t session : {std::uint64_t{0}, std::uint64_t{9}}) {
    const RenderResponse served = service.submit(RenderRequest{"scene", camera, session}).get();
    ASSERT_TRUE(served.ok()) << served.error;
    EXPECT_EQ(max_abs_diff(served.image, sequential_reference(cloud, camera, config)), 0.0f);
  }
  EXPECT_EQ(service.stats().requests_completed, 2u);
  EXPECT_EQ(service.stats().verify_mismatches, 0u);
}

TEST(RenderService, BrokenSceneIsATypedPerClientError) {
  // A garbled PLY on disk: the client that asked for it gets a typed
  // kSceneLoadFailed with the PLY parser's message; other clients and the
  // process are unaffected.
  const std::string path = ::testing::TempDir() + "gstg_truncated.ply";
  {
    std::ofstream out(path, std::ios::binary);
    out << "ply\nformat binary_little_endian 1.0\nelement vertex abc\nend_header\n";
  }
  ServiceConfig config = small_service_config();
  RenderService service(config);  // default loader: real PLY + scene recipes

  RenderResponse broken = service.submit(RenderRequest{path, make_camera(64, 48), 0}).get();
  EXPECT_EQ(broken.status, ServiceStatus::kSceneLoadFailed);
  EXPECT_NE(broken.error.find("PLY"), std::string::npos);

  RenderResponse unknown =
      service.submit(RenderRequest{"no-such-scene", make_camera(64, 48), 0}).get();
  EXPECT_EQ(unknown.status, ServiceStatus::kSceneLoadFailed);

  // A real synthetic scene still renders in the same service instance.
  RenderResponse good = service.submit(RenderRequest{"train", make_camera(64, 48), 0}).get();
  EXPECT_TRUE(good.ok()) << good.error;
  std::remove(path.c_str());
}

TEST(RenderService, GarbledDatasetDirIsATypedPerClientError) {
  // A scene key naming a directory routes through the dataset loader
  // (dataset/load_scene.h). A garbled or unrecognisable directory must come
  // back as a typed kSceneLoadFailed carrying the DatasetError message —
  // never fall through to the synthetic-scene registry or kill the worker.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "gstg_garbled_dataset";
  std::filesystem::create_directories(dir);
  {
    // cameras.bin with a count promising more cameras than the payload has.
    std::ofstream out(dir / "cameras.bin", std::ios::binary);
    const std::uint64_t count = 5;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  ServiceConfig config = small_service_config();
  RenderService service(config);  // default loader: datasets + PLY + recipes

  RenderResponse garbled = service.submit(RenderRequest{dir.string(), make_camera(64, 48), 0}).get();
  EXPECT_EQ(garbled.status, ServiceStatus::kSceneLoadFailed);
  EXPECT_NE(garbled.error.find("dataset"), std::string::npos) << garbled.error;
  EXPECT_NE(garbled.error.find("cameras.bin"), std::string::npos) << garbled.error;

  // An existing directory with no recognisable model at all is also a typed
  // dataset error, not an "unknown scene" fall-through.
  const std::filesystem::path empty_dir =
      std::filesystem::path(::testing::TempDir()) / "gstg_empty_dataset";
  std::filesystem::create_directories(empty_dir);
  RenderResponse empty =
      service.submit(RenderRequest{empty_dir.string(), make_camera(64, 48), 0}).get();
  EXPECT_EQ(empty.status, ServiceStatus::kSceneLoadFailed);
  EXPECT_NE(empty.error.find("dataset"), std::string::npos) << empty.error;

  // The same service instance keeps serving good scenes.
  EXPECT_TRUE(service.submit(RenderRequest{"train", make_camera(64, 48), 0}).get().ok());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(empty_dir);
}

TEST(RenderService, ShutdownRejectsNewRequestsAndDrainsQueued) {
  ServiceConfig config = small_service_config();
  config.verify = false;
  RenderService service(config, fixed_cloud_loader());
  const Camera camera = make_camera(64, 48);

  std::vector<std::future<RenderResponse>> queued;
  for (int i = 0; i < 6; ++i) queued.push_back(service.submit(RenderRequest{"scene", camera, 0}));
  service.shutdown();
  for (auto& future : queued) EXPECT_TRUE(future.get().ok());  // drained, not dropped

  RenderResponse after = service.submit(RenderRequest{"scene", camera, 0}).get();
  EXPECT_EQ(after.status, ServiceStatus::kShutdown);
  RenderResponse after_try = service.try_submit(RenderRequest{"scene", camera, 0}).get();
  EXPECT_EQ(after_try.status, ServiceStatus::kShutdown);
}

TEST(RenderService, ServiceEnvKnobsRejectMalformedValues) {
  ASSERT_EQ(setenv("GSTG_SERVICE_QUEUE", "64garbage", 1), 0);
  EXPECT_THROW((void)ServiceConfig{}.resolved(), std::invalid_argument);
  ASSERT_EQ(setenv("GSTG_SERVICE_QUEUE", "0", 1), 0);
  EXPECT_THROW((void)ServiceConfig{}.resolved(), std::invalid_argument);
  ASSERT_EQ(setenv("GSTG_SERVICE_QUEUE", "8", 1), 0);
  EXPECT_EQ(ServiceConfig{}.resolved().queue_capacity, 8u);
  ASSERT_EQ(unsetenv("GSTG_SERVICE_QUEUE"), 0);
}

TEST(RenderService, MisspelledModeEnvFailsConstructionNotWorkers) {
  // Run-mode overrides are resolved on the caller's thread, so a typo is a
  // typed constructor error rather than a throw inside a worker thread.
  // GSTG_BINNING is retired: any value is rejected as an unknown variable.
  for (const char* name : {"GSTG_TEMPORAL", "GSTG_BINNING", "GSTG_RESIDENCY", "GSTG_SIMD"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(setenv(name, "bogus", 1), 0);
    EXPECT_THROW((void)ServiceConfig{}.resolved(), std::invalid_argument);
    EXPECT_THROW({ RenderService service(small_service_config(), fixed_cloud_loader()); },
                 std::invalid_argument);
    ASSERT_EQ(unsetenv(name), 0);
  }
}

TEST(ConfigResolution, AllConstructorsSeeTheSameOverrides) {
  // GsTgConfig::resolved() is the one place the environment is applied, so
  // the persistent renderer, the temporal renderer and the service agree.
  testutil::EnvGuard threads("GSTG_THREADS");
  testutil::EnvGuard temporal("GSTG_TEMPORAL");
  testutil::EnvGuard residency("GSTG_RESIDENCY");
  testutil::EnvGuard simd("GSTG_SIMD");
  testutil::EnvGuard retired("GSTG_BINNING");
  threads.set("3");
  temporal.set("verify");
  residency.set("float32");
  simd.unset();
  retired.unset();

  GsTgConfig config;  // threads = 0, temporal = kOff, residency = kCompressed
  ServiceConfig service;
  service.render = config;
  const GsTgConfig seen[] = {Renderer(config).config(), TemporalRenderer(config).config(),
                             service.resolved().render};
  for (const GsTgConfig& c : seen) {
    EXPECT_EQ(c.threads, 3u);
    EXPECT_EQ(c.temporal, TemporalMode::kVerify);
    EXPECT_EQ(c.residency, ResidencyMode::kFloat32);
  }

  // A malformed GSTG_SIMD and a retired variable fail all three alike.
  const auto expect_all_reject = [&](const char* name) {
    SCOPED_TRACE(name);
    const auto expect_names = [&](const auto& construct) {
      try {
        construct();
        ADD_FAILURE() << "construction should throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    };
    expect_names([&] { (void)Renderer(config); });
    expect_names([&] { (void)TemporalRenderer(config); });
    expect_names([&] { (void)service.resolved(); });
  };
  simd.set("bogus");
  expect_all_reject("GSTG_SIMD");
  simd.unset();
  retired.set("flat");
  expect_all_reject("GSTG_BINNING");
}

TEST(ConfigResolution, UnknownGstgVariablesAreRejectedByName) {
  for (const char* name : {"GSTG_BINNING", "GSTG_PIPELINE", "GSTG_THREDS"}) {
    SCOPED_TRACE(name);
    testutil::EnvGuard guard(name);
    guard.set("1");
    try {
      (void)GsTgConfig{}.resolved();
      ADD_FAILURE() << name << " should be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
  EXPECT_NO_THROW((void)GsTgConfig{}.resolved());
}

TEST(ServiceStatus, NamesAreStable) {
  EXPECT_STREQ(to_string(ServiceStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ServiceStatus::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(ServiceStatus::kSceneLoadFailed), "scene_load_failed");
}

}  // namespace
}  // namespace gstg
