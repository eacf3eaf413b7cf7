// bench_simd: per-backend SIMD A/B driver. Renders every scene with every
// compiled backend, verifies bit-identity against the scalar backend, and
// writes BENCH_simd.json — the per-backend trajectory CI archives so
// speedups (and the bit-identity invariant) stay inspectable from any PR.
//
// Like run_all, this only needs the project libraries (no Google Benchmark),
// so it always builds.
//
// Run:  ./bench_simd [--out-dir=.] [--repeat=3] [--scenes=train,truck]
//                    [--threads=N]
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "core/pipeline.h"
#include "json_writer.h"
#include "render/framebuffer.h"
#include "render/simd_kernels.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;
using benchutil::images_bit_identical;
using benchutil::split_csv;

RenderResult best_of(int repeat, const Scene& scene, const GsTgConfig& config) {
  RenderResult best = render_gstg(scene.cloud, scene.camera, config);
  for (int i = 1; i < repeat; ++i) {
    RenderResult r = render_gstg(scene.cloud, scene.camera, config);
    if (r.times.total_ms() < best.times.total_ms()) best = std::move(r);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "repeat", "scenes", "threads"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);
    const std::size_t threads = args.get_size("threads", 0);
    std::vector<std::string> scenes = split_csv(args.get("scenes", ""));
    if (scenes.empty()) scenes = benchutil::algo_scene_names();

    benchutil::print_scale_banner("bench_simd: per-backend rasterize/preprocess A/B");
    const std::vector<SimdBackend>& backends = available_simd_backends();
    std::printf("# backends:");
    for (const SimdBackend b : backends) std::printf(" %s", to_string(b));
    std::printf(" | widest verified: %s\n", to_string(widest_verified_backend()));

    bool identity_ok = true;
    JsonWriter json(out_dir + "/BENCH_simd.json");
    json.open_object();
    json.value("bench", "simd_ab");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("widest_verified", to_string(widest_verified_backend()));
    json.open_array("scenes");

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      std::printf("bench_simd: %s (%zu gaussians, %dx%d)\n", name.c_str(), scene.cloud.size(),
                  scene.render_width, scene.render_height);

      GsTgConfig scalar_config;
      scalar_config.threads = threads;
      scalar_config.simd = SimdBackend::kScalar;
      const RenderResult scalar = best_of(repeat, scene, scalar_config);

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.open_array("backends");
      for (const SimdBackend backend : backends) {
        GsTgConfig config;
        config.threads = threads;
        config.simd = backend;
        // The scalar reference render doubles as that backend's sample.
        const RenderResult got =
            backend == SimdBackend::kScalar ? scalar : best_of(repeat, scene, config);

        const bool identical = images_bit_identical(scalar.image, got.image);
        if (!identical) {
          identity_ok = false;
          std::fprintf(stderr, "bench_simd: MISMATCH vs scalar on %s (backend %s)\n",
                       name.c_str(), to_string(backend));
        }
        const double raster_speedup =
            got.times.raster_ms > 0.0 ? scalar.times.raster_ms / got.times.raster_ms : 0.0;
        const double pre_speedup = got.times.preprocess_ms > 0.0
                                       ? scalar.times.preprocess_ms / got.times.preprocess_ms
                                       : 0.0;
        std::printf("  %-6s pre %7.2fms raster %7.2fms (%.2fx / %.2fx) %s\n",
                    to_string(backend), got.times.preprocess_ms, got.times.raster_ms,
                    pre_speedup, raster_speedup, identical ? "bit-identical" : "MISMATCH");

        json.open_object();
        json.value("backend", to_string(backend));
        json.value("lane_width", simd_kernels(backend).lane_width);
        json.value("exact_preprocess_ms", got.times.preprocess_ms);
        json.value("exact_sort_ms", got.times.sort_ms);
        json.value("exact_raster_ms", got.times.raster_ms);
        json.value("exact_total_ms", got.times.total_ms());
        json.value_bool("exact_identical_to_scalar", identical);
        json.value("exact_raster_speedup_vs_scalar", raster_speedup);
        json.value("exact_preprocess_speedup_vs_scalar", pre_speedup);
        json.close_object();
      }
      json.close_array();
      json.close_object();
    }
    json.close_array();
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    std::printf("bench_simd: wrote %s/BENCH_simd.json\n", out_dir.c_str());
    // A backend diverging from scalar is a correctness regression: fail the
    // driver so CI's bench step goes red.
    return identity_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_simd: %s\n", e.what());
    return 1;
  }
}
