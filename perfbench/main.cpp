// gstg_perfbench: the repository benchmark's measuring program. run.py
// builds it and forwards the benchmark arguments:
//
//   gstg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>]
//   gstg_perfbench --self-test
//
// Prints one informational JSON line ({"info": ...}) and then, as the last
// line, {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the
// run measured; 1 on a correctness failure or a failed self-test; 2 on a
// usage error or a GSTG_* variable in the environment.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench_math.h"
#include "core/renderer.h"
#include "render/pipeline.h"
#include "render/simd_kernels.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const Report& report) {
  std::ostringstream info;
  info << "{\"info\":{";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    info << (i ? "," : "") << json_string(report.info[i].first) << ":"
         << json_string(report.info[i].second);
  }
  info << "}}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (report.correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Names of GSTG_* variables in the environment: each would silently
/// change what Renderer, render_baseline or the service run.
std::vector<std::string> gstg_overrides() {
  std::vector<std::string> names;
  for (char** env = environ; env && *env; ++env) {
    if (std::strncmp(*env, "GSTG_", 5) == 0) {
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq ? static_cast<std::size_t>(eq - *env) : std::strlen(*env));
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// Self-test.

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cerr << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void self_test_statistics() {
  // Reference values from Python: statistics.quantiles(range(1, 11), n=4,
  // method="inclusive") == [3.25, 5.5, 7.75].
  const std::vector<double> ten = {10, 3, 1, 7, 5, 9, 2, 8, 6, 4};
  check(near(percentile(ten, 0.25), 3.25), "percentile p25 of 1..10 = 3.25");
  check(near(median(ten), 5.5), "median of 1..10 = 5.5");
  check(near(percentile(ten, 0.75), 7.75), "percentile p75 of 1..10 = 7.75");
  check(near(percentile(ten, 0.9), 9.1), "percentile p90 of 1..10 = 9.1");
  check(near(percentile(ten, 0.0), 1.0) && near(percentile(ten, 1.0), 10.0),
        "p0 = min, p100 = max");
  check(near(median({4.0}), 4.0), "median of one sample is the sample");
  check(near(median({1.0, 2.0, 3.0, 4.0}), 2.5), "median of an even sample interpolates");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of an empty sample throws");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(samples_beyond(hundred, 0.9) == 10, "p90 of 100 samples has 10 samples beyond it");
  check(samples_beyond(hundred, 0.95) == 5, "p95 of 100 samples has 5 samples beyond it");
}

void self_test_par_eff() {
  check(near(par_eff(2e6, 1e6, 2), 1.0), "par_eff: 2 threads busy the whole stage = 1");
  check(near(par_eff(1e6, 1e6, 2), 0.5), "par_eff: serial stage on 2 threads = 0.5");
  check(near(par_eff(3e6, 1e6, 4), 0.75), "par_eff: 3 of 4 threads busy = 0.75");
  check(par_eff(1e6, 0.0, 2) == 0.0 && par_eff(1e6, 1e6, 0) == 0.0,
        "par_eff: degenerate inputs = 0");
  check(near(ns_per(5e6, 1e3), 5e3) && ns_per(1.0, 0.0) == 0.0, "ns_per: wall over count");
  const Sample s = measure([] {
    volatile double x = 0;
    for (int i = 0; i < 2000000; ++i) x = x + 1.0;
  });
  check(s.wall_ns > 0 && s.cpu_ns > 0 && par_eff(s.cpu_ns, s.wall_ns, 1) <= 1.05,
        "measure: a serial loop spends at most its wall time on CPU");
}

bool same_cameras(const std::vector<gstg::Camera>& a, const std::vector<gstg::Camera>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const gstg::Vec3 p = a[i].position();
    const gstg::Vec3 q = b[i].position();
    if (std::memcmp(&p, &q, sizeof(p)) != 0) return false;
  }
  return true;
}

/// The per-layer metrics that are work counts (or ratios of counts) and
/// must repeat exactly for a seed.
const std::set<std::string>& count_metrics() {
  static const std::set<std::string> names = {
      "render.visible_gaussians", "core.identify_tests",       "core.group_entries",
      "core.bitmask_tests",       "core.sort_pairs",           "core.alpha_evals",
      "core.filter_checks",       "core.filter_pass_ratio",    "render.bin_tests",
      "render.tile_pairs",        "render.sort_pairs",         "render.sort_pair_reduction",
      "temporal.reuse_pair_ratio", "temporal.groups_reused"};
  return names;
}

void self_test_seeds() {
  const gstg::Scene scene = gstg::generate_scene("train", small_scale());
  check(same_cameras(orbit_views(scene, 24, 7), orbit_views(scene, 24, 7)),
        "orbit_views: same seed, same cameras");
  check(!same_cameras(orbit_views(scene, 24, 7), orbit_views(scene, 24, 8)),
        "orbit_views: seeds differ, cameras differ");
  check(same_cameras(session_tour(scene, 7), session_tour(scene, 7)),
        "session_tour: same seed, same cameras");
  check(!same_cameras(session_tour(scene, 7), session_tour(scene, 8)),
        "session_tour: seeds differ, cameras differ");

  // A short traced run twice on one seed: every count metric repeats exactly.
  const WorkloadSpec spec{"selftest", "train", small_scale(), 2, false};
  Report first;
  Report second;
  run_traced(spec, 11, 0.2, "", first);
  run_traced(spec, 11, 0.2, "", second);
  check(first.correct && second.correct, "traced run passes its own correctness gates");
  for (const Report* r : {&first, &second}) {
    for (const std::string& e : r->errors) std::cerr << "    " << e << "\n";
  }
  bool counts_equal = first.metrics.size() == second.metrics.size();
  std::size_t counts = 0;
  for (std::size_t i = 0; counts_equal && i < first.metrics.size(); ++i) {
    if (count_metrics().count(first.metrics[i].name) == 0) continue;
    ++counts;
    const Metric& a = first.metrics[i];
    const Metric& b = second.metrics[i];
    counts_equal = a.name == b.name && std::memcmp(&a.value, &b.value, sizeof(double)) == 0;
    if (!counts_equal) std::cerr << "    differs: " << first.metrics[i].name << "\n";
  }
  check(counts_equal && counts == count_metrics().size(),
        "traced run: count metrics repeat exactly on one seed (" + std::to_string(counts) +
            " compared)");
}

void self_test_gates() {
  const gstg::Scene scene = gstg::generate_scene("train", small_scale());
  const gstg::GsTgConfig config = explicit_config(1);
  const gstg::Camera camera = orbit_views(scene, 24, 3)[0];
  gstg::FrameContext ctx;
  gstg::Renderer(config).render(scene.cloud, camera, ctx);
  const gstg::RenderResult base =
      gstg::render_baseline(scene.cloud, camera, config.render_config());

  Report clean;
  clean.expect_identical(ctx.image, base.image, "lossless gate");
  check(clean.correct, "lossless gate passes on identical GS-TG and baseline images");

  gstg::Framebuffer injected = ctx.image;
  gstg::Vec3& px = injected.at(injected.width() / 2, injected.height() / 2);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &px.y, sizeof(bits));
  bits ^= 1u;  // one ulp in one channel of one pixel
  std::memcpy(&px.y, &bits, sizeof(bits));
  Report tripped;
  tripped.expect_identical(injected, base.image, "lossless gate");
  check(!tripped.correct && tripped.errors.size() == 1,
        "an injected one-ulp image mismatch trips the gate");
  check(image_hash(injected) != image_hash(ctx.image),
        "an injected mismatch changes the response hash");

  gstg::RenderCounters counters = ctx.counters;
  check(counters_equal(counters, ctx.counters), "counters_equal: identical counters match");
  ++counters.alpha_computations;
  check(!counters_equal(counters, ctx.counters), "counters_equal: one-count difference is caught");
}

int run_self_test() {
  std::cerr << "perfbench self-test\n";
  self_test_statistics();
  self_test_par_eff();
  self_test_gates();
  self_test_seeds();
  std::cerr << (g_failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "gstg_perfbench: " << message << "\n"
            << "usage: gstg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] | --self-test\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_file;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--trace-file") {
        trace_file = value();
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + arg);
    }
  }

  const std::vector<std::string> overrides = gstg_overrides();
  if (!overrides.empty()) {
    std::string names;
    for (const std::string& n : overrides) names += " " + n;
    std::cerr << "gstg_perfbench: refusing to run with GSTG_* overrides set:" << names << "\n";
    return 2;
  }
  if (self_test) return run_self_test();
  if (workload.empty() || !have_seed || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }

  Report report;
  try {
    const WorkloadSpec& spec = workload_spec(workload);
    report.note("workload", spec.name);
    report.note("seed", std::to_string(seed));
    report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    const gstg::SimdBackend simd = gstg::resolve_simd_backend(gstg::SimdBackend::kAuto);
    report.note("simd_backend", gstg::to_string(simd));
    report.note("frame_threads", std::to_string(spec.frame_threads));
    if (trace == 1) {
      run_traced(spec, seed, seconds, trace_file, report);
    } else {
      run_end_to_end(spec, seed, seconds, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "gstg_perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& f : report.failures) std::cerr << "failed: " << f << "\n";
  for (const std::string& e : report.errors) std::cerr << "correctness: " << e << "\n";
  print_report(report);
  return report.correct ? 0 : 1;
}
