#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench_math.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "core/renderer.h"
#include "render/binning.h"
#include "render/pipeline.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"
#include "service/render_service.h"
#include "temporal/camera_path.h"
#include "temporal/temporal_renderer.h"

namespace perfbench {

using namespace gstg;

namespace {

constexpr double kTwoPi = 6.283185307179586;
constexpr float kFovX = 1.2f;          // the scenes' evaluation field of view
constexpr int kOrbitViews = 24;        // distinct views per orbit lap
constexpr int kTracedViewStride = 3;   // traced run: every 3rd orbit view
constexpr int kSetupReps = 5;          // set-ups per run; setup_s is their median
constexpr int kTourKeyframes = 6;       // session tours: 6 keyframes, 22 frames
constexpr int kStatelessViews = 12;     // stateless clients' orbit views
constexpr std::size_t kSessionClients = 2;
constexpr std::size_t kStatelessClients = 2;
constexpr std::size_t kDirectStride = 4;  // serve_mixed times every 4th client camera directly

double ms(double ns) { return ns * 1e-6; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Counts one operation; a throw counts it as failed (typed errors land in
/// `failed`, never in the correctness verdict).
template <typename Fn>
bool attempt(Report& report, const std::string& what, Fn&& fn) {
  ++report.attempted;
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    ++report.failed;
    report.failures.push_back(what + ": " + e.what());
    return false;
  }
}

// ---------------------------------------------------------------------------
// Spans recorded by the traced run around each public stage call.

struct Span {
  const char* name;
  double start_ns;
  double end_ns;
};

class SpanLog {
 public:
  template <typename Fn>
  Sample record(const char* name, Fn&& fn) {
    const double start = wall_ns();
    const Sample s = measure(std::forward<Fn>(fn));
    spans_.push_back({name, start, start + s.wall_ns});
    return s;
  }
  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          << "\"ts\":" << (s.start_ns - origin) * 1e-3
          << ",\"dur\":" << (s.end_ns - s.start_ns) * 1e-3 << "}";
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Wall/CPU sums and per-frame wall samples of one stage.
struct StageAcc {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<double> frame_ms;
  std::vector<std::size_t> view;  ///< camera of each sample (add(s, view) only)
  void add(const Sample& s) {
    wall += s.wall_ns;
    cpu += s.cpu_ns;
    frame_ms.push_back(ms(s.wall_ns));
  }
  void add(const Sample& s, std::size_t camera) {
    add(s);
    view.push_back(camera);
  }
  [[nodiscard]] double p50_ms() const { return median(frame_ms); }
  /// Each camera's median frame time over the run. A camera is rendered
  /// several times per run, and its median drops the visits a stall on the
  /// shared host slowed, so percentiles over these values follow the cost
  /// of the views rather than the host's interruptions.
  [[nodiscard]] std::vector<double> view_medians_ms() const {
    std::map<std::size_t, std::vector<double>> by_view;
    for (std::size_t i = 0; i < view.size(); ++i) by_view[view[i]].push_back(frame_ms[i]);
    std::vector<double> medians;
    for (const auto& [camera, samples] : by_view) medians.push_back(median(samples));
    return medians;
  }
};

// ---------------------------------------------------------------------------
// The RenderService client mix (serve_mixed, and the traced run's service
// phase on every workload).

ServiceConfig service_config() {
  ServiceConfig config;
  config.render = explicit_config(1);
  config.render.temporal = TemporalMode::kReuse;
  config.workers = 2;
  config.queue_capacity = 64;
  config.scene_capacity = 4;
  config.max_batch = 16;
  config.session_capacity = 64;
  config.verify = false;  // responses are checked after the run, outside the timing
  config.trace = false;
  return config;
}

/// The per-client camera streams: sessions stream a tour, stateless
/// clients move every frame along their own orbit.
struct ClientMix {
  std::vector<std::vector<Camera>> cameras;  // per client
  std::vector<std::uint64_t> sessions;       // per client; 0 = stateless
};

ClientMix client_mix(const Scene& scene, std::uint64_t seed) {
  ClientMix mix;
  for (std::size_t c = 0; c < kSessionClients + kStatelessClients; ++c) {
    const std::uint64_t client_seed = seed * 31 + c + 1;
    if (c < kSessionClients) {
      mix.cameras.push_back(session_tour(scene, client_seed));
      mix.sessions.push_back(c + 1);
    } else {
      mix.cameras.push_back(orbit_views(scene, kStatelessViews, client_seed));
      mix.sessions.push_back(0);
    }
  }
  return mix;
}

/// A service built with the explicit config, its scene loader pinned to
/// `scale` (never GSTG_SCALE), and warmed by one request per client.
struct WarmService {
  std::unique_ptr<RenderService> service;
  double setup_s = 0.0;
};

WarmService warm_service(const std::string& scene, RunScale scale, const ClientMix& mix,
                         Report& report) {
  WarmService warm;
  const double start = wall_ns();
  warm.service = std::make_unique<RenderService>(service_config(), [scale](const std::string& key) {
    return generate_scene(key, scale).cloud;
  });
  for (std::size_t c = 0; c < mix.cameras.size(); ++c) {
    const RenderResponse response =
        warm.service->submit({scene, mix.cameras[c][0], mix.sessions[c], false}).get();
    report.expect(response.ok(), "service warm-up request failed: " + response.error);
  }
  warm.setup_s = (wall_ns() - start) * 1e-9;
  return warm;
}

/// What the clients and the service did over all serving slices of a run.
struct ServeLog {
  explicit ServeLog(std::size_t clients) : next_frame(clients, 1) {}  // frame 0 warmed up

  std::vector<double> session_ms;
  std::vector<double> stateless_ms;
  std::vector<double> all_ms;
  std::size_t completed = 0;   ///< kOk responses, timed or not
  std::size_t batches = 0;     ///< scheduler dispatches during the slices
  std::size_t dispatched = 0;  ///< requests those dispatches carried
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::size_t> next_frame;  ///< per client: next position in its stream
  /// (client, camera index) -> response hashes, checked after the run.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::uint64_t>> hashes;
};

/// One serving slice. Closed loop: every client keeps exactly one request
/// outstanding until the slice ends; a request's latency is submit() to
/// response. Client streams continue across slices. Each client's first
/// request of a slice refills the caches the direct slice before it
/// evicted, so its latency is not recorded (its response is still checked).
void serve_slice(RenderService& service, const std::string& scene, const ClientMix& mix,
                 double seconds, ServeLog& log, Report& report) {
  struct ClientLog {
    std::vector<double> latency_ms;
    std::vector<std::pair<std::size_t, std::uint64_t>> hashes;  // (camera, hash)
    std::size_t attempted = 0;
    std::vector<std::string> errors;
  };
  const std::size_t clients = mix.cameras.size();
  std::vector<ClientLog> logs(clients);
  const ServiceStats before = service.stats();
  const double start = wall_ns();
  const double deadline = start + seconds * 1e9;
  const double cpu0 = cpu_ns();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& client = logs[c];
        const std::vector<Camera>& cams = mix.cameras[c];
        std::size_t& k = log.next_frame[c];
        // At least one timed request per client, however short the slice.
        for (std::size_t n = 0; n < 2 || wall_ns() < deadline; ++k, ++n) {
          const bool first = n == 0;
          const std::size_t cam = k % cams.size();
          ++client.attempted;
          try {
            const double t0 = wall_ns();
            RenderResponse response =
                service.submit({scene, cams[cam], mix.sessions[c], false}).get();
            const double t1 = wall_ns();
            if (!response.ok()) {
              client.errors.push_back(std::string(to_string(response.status)) + ": " +
                                      response.error);
              continue;
            }
            if (!first) client.latency_ms.push_back(ms(t1 - t0));
            client.hashes.emplace_back(cam, image_hash(response.image));
          } catch (const std::exception& e) {
            client.errors.emplace_back(e.what());
          }
        }
      });
    }
  }
  log.cpu_s += (cpu_ns() - cpu0) * 1e-9;
  log.wall_s += (wall_ns() - start) * 1e-9;
  const ServiceStats after = service.stats();
  log.batches += after.batches - before.batches;
  log.dispatched += (after.requests_completed + after.requests_failed) -
                    (before.requests_completed + before.requests_failed);
  for (std::size_t c = 0; c < clients; ++c) {
    ClientLog& client = logs[c];
    report.attempted += client.attempted;
    report.failed += client.errors.size();
    for (const std::string& e : client.errors) {
      report.failures.push_back("client " + std::to_string(c) + ": " + e);
    }
    auto& bucket = mix.sessions[c] != 0 ? log.session_ms : log.stateless_ms;
    bucket.insert(bucket.end(), client.latency_ms.begin(), client.latency_ms.end());
    log.all_ms.insert(log.all_ms.end(), client.latency_ms.begin(), client.latency_ms.end());
    for (const auto& [cam, hash] : client.hashes) log.hashes[{c, cam}].push_back(hash);
    log.completed += client.hashes.size();
  }
}

/// Timed direct renders of the client cameras, outside the service, at
/// its intra-frame thread count: persistent Renderer and render_baseline
/// per camera, lossless-gated. Every kDirectStride-th camera of the client
/// streams, taken in client order, is timed: 17 distinct cameras (session
/// keyframes, session move frames and stateless views), so each collects
/// about 20 samples in a run and its median drops the ones a stall on the
/// shared host slowed. A cursor continues round-robin across slices, so
/// over a run every camera is timed equally often (within one).
struct DirectRenders {
  explicit DirectRenders(const ClientMix& mix) {
    std::size_t flat = 0;
    for (std::size_t c = 0; c < mix.cameras.size(); ++c) {
      for (std::size_t i = 0; i < mix.cameras[c].size(); ++i, ++flat) {
        if (flat % kDirectStride == 0) cameras.emplace_back(c, i);
      }
    }
    renderer_hash.resize(cameras.size());
  }

  std::vector<std::pair<std::size_t, std::size_t>> cameras;  ///< (client, camera index)
  std::vector<std::optional<std::uint64_t>> renderer_hash;   ///< first Renderer image per camera
  std::size_t cursor = 0;
  Renderer renderer{explicit_config(1)};
  FrameContext ctx;  ///< persists across slices, so only the warm-up frame allocates
  StageAcc gstg;
  StageAcc baseline;
};

void direct_slice(const GaussianCloud& cloud, const ClientMix& mix, double seconds,
                  DirectRenders& direct, Report& report) {
  const RenderConfig rc = direct.renderer.config().render_config();
  FrameContext& ctx = direct.ctx;
  {
    // Untimed: refill the caches the serving slice before it evicted.
    const auto [client, index] = direct.cameras[direct.cursor % direct.cameras.size()];
    attempt(report, "direct warm-up", [&] {
      direct.renderer.render(cloud, mix.cameras[client][index], ctx);
      (void)render_baseline(cloud, mix.cameras[client][index], rc);
    });
  }
  const double deadline = wall_ns() + seconds * 1e9;
  do {
    const std::size_t i = direct.cursor++ % direct.cameras.size();
    const auto [client, index] = direct.cameras[i];
    const Camera& camera = mix.cameras[client][index];
    std::optional<RenderResult> base;
    const bool gstg_ok = attempt(report, "direct Renderer::render", [&] {
      direct.gstg.add(measure([&] { direct.renderer.render(cloud, camera, ctx); }), i);
    });
    const bool base_ok = attempt(report, "direct render_baseline", [&] {
      direct.baseline.add(measure([&] { base.emplace(render_baseline(cloud, camera, rc)); }), i);
    });
    if (gstg_ok && !direct.renderer_hash[i]) direct.renderer_hash[i] = image_hash(ctx.image);
    if (gstg_ok && base_ok) {
      report.expect_identical(ctx.image, base->image, "lossless gate (served camera)");
    }
  } while (wall_ns() < deadline);
}

/// After the run: every kOk response and every directly rendered camera
/// must match a render_gstg of the same camera.
void check_served(const GaussianCloud& cloud, const ClientMix& mix, const ServeLog& log,
                  const DirectRenders& direct, Report& report) {
  const GsTgConfig config = explicit_config(1);
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> rendered;
  for (std::size_t i = 0; i < direct.cameras.size(); ++i) {
    if (direct.renderer_hash[i]) rendered[direct.cameras[i]] = *direct.renderer_hash[i];
  }
  std::size_t response_mismatches = 0;
  std::size_t renderer_mismatches = 0;
  for (std::size_t c = 0; c < mix.cameras.size(); ++c) {
    for (std::size_t i = 0; i < mix.cameras[c].size(); ++i) {
      const auto served = log.hashes.find({c, i});
      const auto direct_hash = rendered.find({c, i});
      if (served == log.hashes.end() && direct_hash == rendered.end()) continue;
      attempt(report, "reference render_gstg", [&] {
        const std::uint64_t reference =
            image_hash(render_gstg(cloud, mix.cameras[c][i], config).image);
        if (served != log.hashes.end()) {
          for (const std::uint64_t h : served->second) response_mismatches += h != reference;
        }
        renderer_mismatches += direct_hash != rendered.end() && direct_hash->second != reference;
      });
    }
  }
  report.expect(response_mismatches == 0,
                std::to_string(response_mismatches) +
                    " kOk service responses differ from render_gstg of the same request");
  report.expect(renderer_mismatches == 0, std::to_string(renderer_mismatches) +
                                              " direct Renderer::render frames differ from "
                                              "render_gstg");
}

/// The serve_mixed measurement on a warm service: kServeSlices alternations
/// of a serving slice (60% of the time) and a direct-render slice (40%), so
/// both sample the host over the whole run, then the correctness checks.
struct ServeRun {
  explicit ServeRun(const ClientMix& mix) : log(mix.cameras.size()), direct(mix) {}
  ServeLog log;
  DirectRenders direct;
};

constexpr int kServeSlices = 10;

ServeRun serve_and_check(RenderService& service, const Scene& scene, const ClientMix& mix,
                         double seconds, Report& report) {
  ServeRun run(mix);
  const double slice = seconds / kServeSlices;
  for (int i = 0; i < kServeSlices; ++i) {
    serve_slice(service, scene.info.name, mix, 0.6 * slice, run.log, report);
    direct_slice(scene.cloud, mix, 0.4 * slice, run.direct, report);
  }
  service.shutdown();
  check_served(scene.cloud, mix, run.log, run.direct, report);
  report.expect(!run.log.all_ms.empty() && !run.direct.gstg.frame_ms.empty() &&
                    !run.direct.baseline.frame_ms.empty(),
                "no served request or direct render completed");
  return run;
}

// ---------------------------------------------------------------------------
// Set-up shared by the frame workloads and the traced stage decomposition.

struct FrameSetup {
  std::optional<Scene> scene;
  std::vector<Camera> views;
  std::optional<Renderer> renderer;
  std::unique_ptr<FrameContext> ctx;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
};

FrameSetup setup_frames(const WorkloadSpec& spec, std::uint64_t seed, Report& report) {
  FrameSetup setup;
  const GsTgConfig config = explicit_config(spec.frame_threads);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Each set-up starts from nothing, so the previous one's scene is not
    // alive next to the new one and peak_rss_mb holds one set-up.
    setup.ctx.reset();
    setup.renderer.reset();
    setup.scene.reset();
    const double start = wall_ns();
    setup.scene.emplace(generate_scene(spec.scene, spec.scale));
    setup.generate_s.push_back((wall_ns() - start) * 1e-9);
    setup.views = orbit_views(*setup.scene, kOrbitViews, seed);
    setup.renderer.emplace(config);
    setup.ctx = std::make_unique<FrameContext>();
    attempt(report, "warm-up Renderer::render",
            [&] { setup.renderer->render(setup.scene->cloud, setup.views[0], *setup.ctx); });
    attempt(report, "warm-up render_baseline", [&] {
      (void)render_baseline(setup.scene->cloud, setup.views[0], config.render_config());
    });
    setup.setup_s.push_back((wall_ns() - start) * 1e-9);
  }
  return setup;
}

void add_common(Report& report, double setup_s) {
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("setup_s", setup_s, "s");
}

// ---------------------------------------------------------------------------
// End-to-end runs.

void run_frames(const WorkloadSpec& spec, std::uint64_t seed, double seconds, Report& report) {
  FrameSetup setup = setup_frames(spec, seed, report);
  const GaussianCloud& cloud = setup.scene->cloud;
  const RenderConfig rc = explicit_config(spec.frame_threads).render_config();
  StageAcc gstg;
  StageAcc baseline;
  std::size_t laps = 0;
  const double deadline = wall_ns() + seconds * 1e9;
  // Whole laps only, so every run weighs each orbit view equally.
  do {
    for (std::size_t i = 0; i < setup.views.size(); ++i) {
      const Camera& camera = setup.views[i];
      std::optional<RenderResult> base;
      bool gstg_ok = false;
      bool base_ok = false;
      const auto run_gstg = [&] {
        gstg_ok = attempt(report, "Renderer::render", [&] {
          gstg.add(measure([&] { setup.renderer->render(cloud, camera, *setup.ctx); }), i);
        });
      };
      const auto run_base = [&] {
        base_ok = attempt(report, "render_baseline", [&] {
          baseline.add(measure([&] { base.emplace(render_baseline(cloud, camera, rc)); }), i);
        });
      };
      // Alternate which pipeline runs first so neither always inherits the
      // other's cache state.
      if ((laps + i) % 2 == 0) {
        run_gstg();
        run_base();
      } else {
        run_base();
        run_gstg();
      }
      if (gstg_ok && base_ok) {
        report.expect_identical(setup.ctx->image, base->image,
                                "lossless gate: view " + std::to_string(i));
      }
    }
    ++laps;
  } while (wall_ns() < deadline);

  report.expect(!gstg.frame_ms.empty() && !baseline.frame_ms.empty(), "no frame completed");
  if (gstg.frame_ms.empty() || baseline.frame_ms.empty()) return;
  const double frames = static_cast<double>(gstg.frame_ms.size());
  const double fps = frames / (gstg.wall * 1e-9);
  const std::vector<double> view_ms = gstg.view_medians_ms();
  report.add("frame_ms_p50", median(view_ms), "ms");
  report.add("frame_ms_p90", percentile(view_ms, 0.9), "ms");
  report.add("fps", fps, "1/s");
  report.add("cpu_ms_per_frame", ms(gstg.cpu) / frames, "ms");
  report.add("baseline_frame_ms_p50", median(baseline.view_medians_ms()), "ms");
  // One viewer in a closed loop: its request is one GS-TG frame.
  report.add("req_ms_p50", median(view_ms), "ms");
  report.add("req_ms_p95", percentile(view_ms, 0.95), "ms");
  report.add("req_per_s", fps, "1/s");
  add_common(report, median(setup.setup_s));
  report.note("views", std::to_string(view_ms.size()));
  report.note("laps", std::to_string(laps));
}

void run_serve(const WorkloadSpec& spec, std::uint64_t seed, double seconds, Report& report) {
  const Scene scene = generate_scene(spec.scene, spec.scale);
  const ClientMix mix = client_mix(scene, seed);
  std::vector<double> setup_s;
  WarmService warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    warm = {};  // the previous service drains and joins first
    warm = warm_service(spec.scene, spec.scale, mix, report);
    setup_s.push_back(warm.setup_s);
  }
  const ServeRun run = serve_and_check(*warm.service, scene, mix, seconds, report);
  const ServeLog& log = run.log;
  const DirectRenders& direct = run.direct;
  if (log.all_ms.empty() || direct.gstg.frame_ms.empty() || direct.baseline.frame_ms.empty()) {
    return;
  }
  const double frames = static_cast<double>(direct.gstg.frame_ms.size());
  const double fps = frames / (direct.gstg.wall * 1e-9);
  // frame_* are the served cameras rendered directly at the service's
  // intra-frame thread count: the request cost without the service.
  const std::vector<double> camera_ms = direct.gstg.view_medians_ms();
  report.add("frame_ms_p50", median(camera_ms), "ms");
  report.add("frame_ms_p90", percentile(camera_ms, 0.9), "ms");
  report.add("fps", fps, "1/s");
  report.add("cpu_ms_per_frame", ms(direct.gstg.cpu) / frames, "ms");
  report.add("baseline_frame_ms_p50", median(direct.baseline.view_medians_ms()), "ms");
  report.add("req_ms_p50", median(log.all_ms), "ms");
  report.add("req_ms_p95", percentile(log.all_ms, 0.95), "ms");
  report.add("req_per_s", static_cast<double>(log.completed) / log.wall_s, "1/s");
  add_common(report, median(setup_s));
  report.note("requests", std::to_string(log.completed));
  report.note("req_ms_p95_samples_beyond", std::to_string(samples_beyond(log.all_ms, 0.95)));
  report.note("direct_frames", std::to_string(direct.gstg.frame_ms.size()));
  report.note("direct_cameras", std::to_string(camera_ms.size()));
}

// ---------------------------------------------------------------------------
// Traced run.

/// Wall and CPU samples of one traced frame's stage calls.
struct GsTgStages {
  Sample frame, preprocess, identify, bitmask, sort, raster;
  std::size_t identify_tests = 0;  ///< boundary tests of the identification call alone
  std::size_t group_entries = 0;   ///< (group, splat) entries it produced
};

/// One GS-TG frame composed from the public stage functions, in
/// Renderer::render's order, into `c` (which then holds what
/// Renderer::render would leave in a FrameContext).
GsTgStages compose_gstg(const GsTgConfig& config, const GaussianCloud& cloud, const Camera& camera,
                        FrameContext& c, SpanLog& spans) {
  GsTgStages st;
  const RenderConfig rc = config.render_config();
  GroupedFrame& frame = c.frame;
  st.frame = spans.record("frame", [&] {
    c.counters = {};
    st.preprocess = spans.record("render.preprocess", [&] {
      preprocess_into(cloud, camera, rc, c.counters, c.splats, c.preprocess);
    });
    frame.config = config;
    frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
    frame.group_grid = CellGrid::over_image(camera.width(), camera.height(), config.group_size);
    const RenderCounters before = c.counters;
    st.identify = spans.record("core.identify", [&] {
      bin_splats_into(c.splats, frame.group_grid, config.group_boundary, config.threads,
                      c.counters, frame.group_bins, c.binning, config.binning);
    });
    st.identify_tests = c.counters.boundary_tests - before.boundary_tests;
    st.group_entries = c.counters.tile_pairs - before.tile_pairs;
    st.bitmask = spans.record("core.bitmask", [&] {
      generate_bitmasks_into(c.splats, frame.group_bins, frame.tile_grid, config, c.counters,
                             frame.masks);
    });
    st.sort = spans.record("core.sort", [&] {
      sort_groups(frame.group_bins, frame.masks, c.splats, config.threads, c.counters,
                  config.sort_algo, &c.sort);
    });
    st.raster = spans.record("core.raster", [&] {
      c.image.resize(camera.width(), camera.height());
      rasterize_grouped(frame, c.splats, c.image, config.threads, c.counters, &c.raster);
    });
  });
  return st;
}

/// The baseline pipeline's buffers for the staged baseline frame.
struct BaselineFrame {
  std::vector<ProjectedSplat> splats;
  PreprocessScratch preprocess;
  BinnedSplats bins;
  BinningScratch binning;
  SortScratch sort;
  Framebuffer image{1, 1};
  RenderCounters counters;
};

struct BaselineStages {
  Sample preprocess, bin, sort, raster;
};

/// One baseline frame composed from the public stage functions, in
/// render_baseline's order.
BaselineStages compose_baseline(const RenderConfig& rc, const GaussianCloud& cloud,
                                const Camera& camera, BaselineFrame& b, SpanLog& spans) {
  BaselineStages st;
  b.counters = {};
  st.preprocess = spans.record("render.preprocess", [&] {
    preprocess_into(cloud, camera, rc, b.counters, b.splats, b.preprocess);
  });
  const CellGrid grid = CellGrid::over_image(camera.width(), camera.height(), rc.tile_size);
  st.bin = spans.record("render.bin", [&] {
    bin_splats_into(b.splats, grid, rc.boundary, rc.threads, b.counters, b.bins, b.binning,
                    rc.binning);
  });
  st.sort = spans.record("render.sort", [&] {
    sort_cell_lists(b.bins, b.splats, rc.threads, b.counters, rc.sort_algo, &b.sort);
  });
  st.raster = spans.record("render.raster", [&] {
    b.image.resize(camera.width(), camera.height());
    rasterize_all(b.bins, b.splats, b.image, rc.threads, b.counters, rc.simd);
  });
  return st;
}

/// Phase A: each view rendered by Renderer::render (untraced), by the
/// public GS-TG stage functions (traced), and by the public baseline stage
/// functions (traced).
void traced_stages(const WorkloadSpec& spec, std::uint64_t seed, double seconds, SpanLog& spans,
                   Report& report) {
  FrameSetup setup = setup_frames(spec, seed, report);
  const GaussianCloud& cloud = setup.scene->cloud;
  const GsTgConfig config = explicit_config(spec.frame_threads);
  const RenderConfig rc = config.render_config();
  const std::size_t threads = spec.frame_threads;
  std::vector<Camera> views;
  for (std::size_t i = 0; i < setup.views.size(); i += kTracedViewStride) {
    views.push_back(setup.views[i]);
  }

  FrameContext composed;  // the traced composition's own buffers
  BaselineFrame base;
  StageAcc untraced, traced;
  std::vector<double> glue_ms;
  StageAcc pre, identify, bitmask, sort, raster;
  StageAcc b_bin, b_sort, b_raster;
  RenderCounters lap;       // GS-TG counters over the first round
  RenderCounters base_lap;  // baseline counters over the first round
  double identify_tests = 0;
  double group_entries = 0;
  const double deadline = wall_ns() + seconds * 1e9;
  std::size_t rounds = 0;
  do {
    for (std::size_t v = 0; v < views.size(); ++v) {
      const Camera& camera = views[v];
      const std::string where = " (traced view " + std::to_string(v) + ")";
      GsTgStages st;
      const auto render_untraced = [&] {
        return attempt(report, "Renderer::render", [&] {
          untraced.add(measure([&] { setup.renderer->render(cloud, camera, *setup.ctx); }));
        });
      };
      const auto render_traced = [&] {
        return attempt(report, "traced GS-TG composition",
                       [&] { st = compose_gstg(config, cloud, camera, composed, spans); });
      };
      // Alternate which of the two runs first so neither always finds the
      // cloud in cache; the trace overhead is their difference.
      const bool untraced_first = (rounds + v) % 2 == 0;
      const bool first_ok = untraced_first ? render_untraced() : render_traced();
      const bool second_ok = untraced_first ? render_traced() : render_untraced();
      if (!first_ok || !second_ok) continue;
      traced.add(st.frame);
      pre.add(st.preprocess);
      identify.add(st.identify);
      bitmask.add(st.bitmask);
      sort.add(st.sort);
      raster.add(st.raster);
      const double stages = st.preprocess.wall_ns + st.identify.wall_ns + st.bitmask.wall_ns +
                            st.sort.wall_ns + st.raster.wall_ns;
      glue_ms.push_back(ms(st.frame.wall_ns - stages));
      report.expect_identical(composed.image, setup.ctx->image,
                              "traced composition vs Renderer::render image" + where);
      report.expect(counters_equal(composed.counters, setup.ctx->counters),
                    "traced composition vs Renderer::render counters" + where);

      BaselineStages bst;
      if (!attempt(report, "traced baseline composition",
                   [&] { bst = compose_baseline(rc, cloud, camera, base, spans); })) {
        continue;
      }
      b_bin.add(bst.bin);
      b_sort.add(bst.sort);
      b_raster.add(bst.raster);
      report.expect_identical(base.image, setup.ctx->image,
                              "lossless gate (staged baseline)" + where);
      if (rounds == 0) {
        lap.merge(composed.counters);
        base_lap.merge(base.counters);
        identify_tests += static_cast<double>(st.identify_tests);
        group_entries += static_cast<double>(st.group_entries);
      }
    }
    ++rounds;
  } while (wall_ns() < deadline);
  if (traced.frame_ms.empty() || b_raster.frame_ms.empty()) {
    report.expect(false, "no traced frame completed");
    return;
  }

  const double n = static_cast<double>(views.size());  // per-frame means over the first round
  const auto count = [](std::size_t c) { return static_cast<double>(c); };
  // Unit cost: a stage's wall time over the work it did in the frames timed.
  const auto unit_ns = [](const StageAcc& stage, double count_per_frame) {
    return ns_per(stage.wall, count_per_frame * static_cast<double>(stage.frame_ms.size()));
  };
  report.add("render.preprocess_ms", pre.p50_ms(), "ms");
  report.add("render.preprocess_par_eff", par_eff(pre.cpu, pre.wall, threads), "ratio");
  report.add("render.visible_gaussians", count(lap.visible_gaussians) / n, "count/frame");
  report.add("render.preprocess_ns_per_gaussian",
             unit_ns(pre, count(lap.input_gaussians) / n), "ns");
  report.add("core.identify_ms", identify.p50_ms(), "ms");
  report.add("core.identify_par_eff", par_eff(identify.cpu, identify.wall, threads), "ratio");
  report.add("core.identify_tests", identify_tests / n, "count/frame");
  report.add("core.group_entries", group_entries / n, "count/frame");
  report.add("core.bitmask_ms", bitmask.p50_ms(), "ms");
  report.add("core.bitmask_tests", count(lap.bitmask_tests) / n, "count/frame");
  report.add("core.bitmask_ns_per_test",
             unit_ns(bitmask, count(lap.bitmask_tests) / n), "ns");
  report.add("core.bitmask_par_eff", par_eff(bitmask.cpu, bitmask.wall, threads), "ratio");
  report.add("core.sort_ms", sort.p50_ms(), "ms");
  report.add("core.sort_pairs", count(lap.sort_pairs) / n, "count/frame");
  report.add("core.sort_ns_per_pair", unit_ns(sort, count(lap.sort_pairs) / n),
             "ns");
  report.add("core.sort_par_eff", par_eff(sort.cpu, sort.wall, threads), "ratio");
  report.add("core.raster_ms", raster.p50_ms(), "ms");
  report.add("core.alpha_evals", count(lap.alpha_computations) / n, "count/frame");
  report.add("core.raster_ns_per_alpha",
             unit_ns(raster, count(lap.alpha_computations) / n), "ns");
  report.add("core.raster_par_eff", par_eff(raster.cpu, raster.wall, threads), "ratio");
  report.add("core.filter_checks", count(lap.filter_checks) / n, "count/frame");
  report.add("core.filter_pass_ratio", count(base_lap.tile_pairs) / count(lap.filter_checks),
             "ratio");
  report.add("render.bin_ms", b_bin.p50_ms(), "ms");
  report.add("render.bin_tests", count(base_lap.boundary_tests) / n, "count/frame");
  report.add("render.tile_pairs", count(base_lap.tile_pairs) / n, "count/frame");
  report.add("render.sort_ms", b_sort.p50_ms(), "ms");
  report.add("render.sort_pairs", count(base_lap.sort_pairs) / n, "count/frame");
  report.add("render.raster_ms", b_raster.p50_ms(), "ms");
  report.add("render.raster_ns_per_alpha",
             unit_ns(b_raster, count(base_lap.alpha_computations) / n), "ns");
  report.add("render.raster_par_eff", par_eff(b_raster.cpu, b_raster.wall, threads), "ratio");
  report.add("render.sort_pair_reduction", count(base_lap.sort_pairs) / count(lap.sort_pairs),
             "ratio");
  report.add("core.glue_ms", median(glue_ms), "ms");
  report.add("trace.overhead_ms", traced.p50_ms() - untraced.p50_ms(), "ms");
  report.add("scene.generate_s", median(setup.generate_s), "s");
  report.note("traced_frames", std::to_string(traced.frame_ms.size()));
}

/// Phase B: the session tours replayed directly through TemporalRenderer.
void traced_temporal(const Scene& scene, const ClientMix& mix, double seconds, Report& report) {
  GsTgConfig config = explicit_config(1);
  config.temporal = TemporalMode::kReuse;
  std::vector<double> frame_ms;
  TemporalStats first_pass;
  const double deadline = wall_ns() + seconds * 1e9;
  std::size_t passes = 0;
  do {
    for (std::size_t c = 0; c < mix.cameras.size(); ++c) {
      if (mix.sessions[c] == 0) continue;
      TemporalRenderer renderer(config);
      FrameContext ctx;
      for (const Camera& camera : mix.cameras[c]) {
        attempt(report, "TemporalRenderer::render", [&] {
          const Sample s = measure([&] { renderer.render(scene.cloud, camera, ctx); });
          frame_ms.push_back(ms(s.wall_ns));
        });
      }
      if (passes == 0) first_pass.merge(renderer.total());
    }
    ++passes;
  } while (wall_ns() < deadline);
  report.expect(!frame_ms.empty(), "no temporal frame completed");
  if (frame_ms.empty()) return;
  report.add("temporal.reuse_pair_ratio", first_pass.sorts_avoided_ratio(), "ratio");
  report.add("temporal.groups_reused", static_cast<double>(first_pass.groups_reused), "count");
  report.add("temporal.frame_ms_p50", median(frame_ms), "ms");
}

/// Phase C: the serve_mixed measurement, shorter.
void traced_service(const Scene& scene, const ClientMix& mix, double seconds, Report& report) {
  WarmService warm = warm_service(scene.info.name, small_scale(), mix, report);
  const ServeRun run = serve_and_check(*warm.service, scene, mix, seconds, report);
  const ServeLog& log = run.log;
  if (log.session_ms.empty() || log.stateless_ms.empty() || run.direct.gstg.frame_ms.empty()) {
    report.expect(false, "service phase has no session, stateless or direct sample");
    return;
  }
  const ServiceStats stats = warm.service->stats();
  const double batches = static_cast<double>(log.batches);
  report.add("service.session_req_ms_p50", median(log.session_ms), "ms");
  report.add("service.stateless_req_ms_p50", median(log.stateless_ms), "ms");
  const double direct_p50 = median(run.direct.gstg.view_medians_ms());
  report.add("service.overhead_ms_p50", median(log.all_ms) - direct_p50, "ms");
  report.add("service.batches", batches, "count");
  const double mean_batch = batches > 0 ? static_cast<double>(log.dispatched) / batches : 0.0;
  report.add("service.mean_batch", mean_batch, "requests");
  report.add("service.peak_queue_depth", static_cast<double>(stats.peak_queue_depth), "count");
  report.add("service.cache_misses", static_cast<double>(stats.cache_misses), "count");
  const double workers = static_cast<double>(warm.service->config().workers);
  report.add("service.cpu_util", log.cpu_s / (log.wall_s * workers), "ratio");
}

}  // namespace

// ---------------------------------------------------------------------------

bool Report::expect(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    errors.push_back(what);
  }
  return ok;
}

bool Report::expect_identical(const Framebuffer& a, const Framebuffer& b, const std::string& what) {
  return expect(images_identical(a, b), what + ": images differ");
}

RunScale small_scale() { return RunScale{8, 64}; }

const WorkloadSpec& workload_spec(const std::string& name) {
  static const RunScale bench{4, 16};
  static const std::vector<WorkloadSpec> specs = {
      {"frames_train", "train", bench, 2, false},
      {"frames_drjohnson", "drjohnson", bench, 2, false},
      {"serve_mixed", "train", small_scale(), 1, true},
  };
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

GsTgConfig explicit_config(std::size_t threads) {
  GsTgConfig config;
  config.tile_size = 16;
  config.group_size = 64;
  config.group_boundary = Boundary::kEllipse;
  config.mask_boundary = Boundary::kEllipse;
  config.opacity_aware_rho = false;
  config.sort_algo = SortAlgo::kAuto;
  config.threads = threads;
  config.trace = false;
  return config;
}

namespace {

/// Horizontal radius and angle of the scene's evaluation eye around its
/// focus: the circle every orbit and tour of the benchmark lies on.
struct OrbitCircle {
  double radius;
  double angle;
};

OrbitCircle orbit_circle(const Scene& scene) {
  const Vec3 offset = scene.camera.position() - scene.focus;
  return {std::hypot(static_cast<double>(offset.x), static_cast<double>(offset.z)),
          std::atan2(static_cast<double>(offset.z), static_cast<double>(offset.x))};
}

Vec3 on_circle(const Scene& scene, const OrbitCircle& circle, double angle, double lift) {
  return {scene.focus.x + static_cast<float>(circle.radius * std::cos(angle)),
          scene.camera.position().y + static_cast<float>(lift),
          scene.focus.z + static_cast<float>(circle.radius * std::sin(angle))};
}

}  // namespace

std::vector<Camera> orbit_views(const Scene& scene, int views, std::uint64_t seed) {
  SeededRng rng(seed ^ 0x6f72626974ull);
  const OrbitCircle circle = orbit_circle(scene);
  const double base = circle.angle + kTwoPi * rng.uniform();
  std::vector<Camera> cameras;
  cameras.reserve(static_cast<std::size_t>(views));
  for (int i = 0; i < views; ++i) {
    const double jitter = (rng.uniform() - 0.5) * 0.5;  // up to a quarter of the view spacing
    const double lift = (rng.uniform() - 0.5) * 0.04 * circle.radius;
    const Vec3 eye = on_circle(scene, circle, base + kTwoPi * (i + jitter) / views, lift);
    cameras.push_back(Camera::from_fov(scene.render_width, scene.render_height, kFovX,
                                       look_at(eye, scene.focus)));
  }
  return cameras;
}

std::vector<Camera> session_tour(const Scene& scene, std::uint64_t seed) {
  SeededRng rng(seed ^ 0x746f7572ull);
  const OrbitCircle circle = orbit_circle(scene);
  const double base = circle.angle + kTwoPi * rng.uniform();
  std::vector<CameraKeyframe> keys;
  for (int k = 0; k < kTourKeyframes; ++k) {
    const double angle = base + kTwoPi * k / kTourKeyframes;
    keys.push_back(keyframe_look_at(on_circle(scene, circle, angle, 0.0), scene.focus));
  }
  const CameraPath path(scene.info.name + "-tour", {scene.render_width, scene.render_height, kFovX},
                        std::move(keys));
  return tour_frames(path, /*move_frames=*/2, /*hold_frames=*/2).cameras;
}

bool counters_equal(const RenderCounters& a, const RenderCounters& b) {
  return a.input_gaussians == b.input_gaussians && a.visible_gaussians == b.visible_gaussians &&
         a.boundary_tests == b.boundary_tests && a.tile_pairs == b.tile_pairs &&
         a.coarse_pairs == b.coarse_pairs && a.splats_multi_tile == b.splats_multi_tile &&
         a.sort_pairs == b.sort_pairs &&
         std::memcmp(&a.sort_comparison_volume, &b.sort_comparison_volume, sizeof(double)) == 0 &&
         a.alpha_computations == b.alpha_computations && a.blend_ops == b.blend_ops &&
         a.early_exit_pixels == b.early_exit_pixels && a.pixel_list_work == b.pixel_list_work &&
         a.total_pixels == b.total_pixels && a.bitmask_tests == b.bitmask_tests &&
         a.filter_checks == b.filter_checks;
}

void run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed, double seconds, Report& report) {
  if (spec.served) {
    run_serve(spec, seed, seconds, report);
  } else {
    run_frames(spec, seed, seconds, report);
  }
}

void run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                const std::string& trace_file, Report& report) {
  SpanLog spans;
  double start = wall_ns();
  const auto phase_done = [&](const char* name) {
    const double now = wall_ns();
    report.note(name, std::to_string((now - start) * 1e-9));
    start = now;
  };
  traced_stages(spec, seed, 0.55 * seconds, spans, report);
  phase_done("phase_a_s");
  // The temporal and service phases run the serve_mixed client mix on the
  // workload's scene at small scale, where a render is short enough for
  // queueing and session work to show.
  const Scene small = generate_scene(spec.scene, small_scale());
  const ClientMix mix = client_mix(small, seed);
  traced_temporal(small, mix, 0.15 * seconds, report);
  phase_done("phase_b_s");
  traced_service(small, mix, 0.3 * seconds, report);
  phase_done("phase_c_s");
  if (!trace_file.empty()) spans.write_chrome_json(trace_file);
}

}  // namespace perfbench
