// Global experiment scaling configuration.
//
// The paper evaluates multi-million-Gaussian scenes at up to 5472x3648. The
// benchmark harness defaults to a reduced scale so the whole suite completes
// on a small CI machine; every reported quantity is a ratio, so the paper's
// shapes survive (see DESIGN.md section 5). GSTG_SCALE=full restores
// paper-scale workloads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gstg {

/// Central registry of every GSTG_* environment variable the project reads.
/// A "GSTG_*" string literal anywhere in src/ must appear here AND in the
/// environment-variable table of docs/CONFIG.md — lint rule R4
/// (tools/lint/gstg_lint.py) enforces both, so a new knob cannot ship
/// undocumented or unregistered. Keep the list sorted.
inline constexpr const char* kGstgEnvVars[] = {
    "GSTG_METRICS",           // telemetry: metrics JSON written at process exit
    "GSTG_RESIDENCY",         // residency_mode_from_env (float32/compressed/verify)
    "GSTG_SCALE",             // run_scale_from_env (bench/small/full)
    "GSTG_SERVICE_BATCH",     // render service: max batched requests per worker wake
    "GSTG_SERVICE_QUEUE",     // render service: bounded queue capacity
    "GSTG_SERVICE_SCENES",    // render service: scene cache capacity
    "GSTG_SERVICE_SESSIONS",  // render service: per-session renderer cache capacity
    "GSTG_SERVICE_WORKERS",   // render service: worker thread count
    "GSTG_SIMD",              // SIMD backend override (scalar/sse4/avx2/...)
    "GSTG_TEMPORAL",          // temporal_mode_from_env (off/reuse/verify)
    "GSTG_THREADS",           // worker_thread_count override
    "GSTG_TRACE",             // telemetry: trace JSON written at process exit
};

/// Workload scaling applied by the scene recipes.
struct RunScale {
  /// Linear resolution divisor (1 = paper resolution, 4 = 1/4 width & height).
  int resolution_divisor = 4;
  /// Gaussian-count divisor applied to each scene recipe's paper-scale count.
  int gaussian_divisor = 16;

  [[nodiscard]] bool is_full() const {
    return resolution_divisor == 1 && gaussian_divisor == 1;
  }

  constexpr bool operator==(const RunScale&) const = default;
};

/// Reads GSTG_SCALE from the environment (strict, see common/spelling_table.h):
///   unset / "bench" -> reduced scale (divisors 4 / 16)
///   "small"         -> extra-small scale for smoke tests (divisors 8 / 64)
///   "full"          -> paper scale (divisors 1 / 1)
RunScale run_scale_from_env();

/// The GSTG_SCALE spelling of `scale`; "?" for divisors no spelling selects.
[[nodiscard]] const char* to_string(const RunScale& scale);

/// Throws std::invalid_argument naming the first GSTG_* variable of the
/// process environment that kGstgEnvVars does not list: a retired or
/// misspelled override must fail loudly instead of being silently ignored.
void reject_unknown_gstg_env();

/// Number of worker threads for the software pipelines (GSTG_THREADS or
/// hardware_concurrency). A set-but-malformed GSTG_THREADS (non-numeric,
/// trailing garbage, zero, negative) throws std::invalid_argument naming
/// the variable and value — a typo must not silently fall back to
/// hardware concurrency.
std::size_t worker_thread_count();

/// Strictly parses a positive-integer environment override: the entire
/// value must be a decimal integer >= 1 (no trailing garbage, no sign, no
/// whitespace). Returns `fallback` when the variable is unset; throws
/// std::invalid_argument naming the variable and value otherwise. Every
/// numeric environment override (GSTG_THREADS, the GSTG_SERVICE_* knobs)
/// goes through this one parser so they all reject malformed input the
/// same way.
std::size_t env_positive_size(const char* name, std::size_t fallback);

/// Cross-frame group-sort reuse mode of the temporal renderer
/// (src/temporal/temporal_renderer.h). Lives here, next to the other run
/// modes, so core's config can carry the knob without depending on the
/// temporal layer.
///   kOff    — sort every group every frame (the plain renderer's behaviour)
///   kReuse  — reuse the previous frame's per-group order when the O(n)
///             validity check proves it is still the exact sorted order
///   kVerify — reuse, but also re-sort every group and assert the reused
///             order is bit-identical (the lossless-invariant audit mode)
enum class TemporalMode : std::uint8_t { kOff, kReuse, kVerify };

/// Reads GSTG_TEMPORAL from the environment ("off" / "reuse" / "verify").
/// Unset returns `fallback`; any value but these spellings throws (see
/// common/spelling_table.h).
TemporalMode temporal_mode_from_env(TemporalMode fallback);

[[nodiscard]] const char* to_string(TemporalMode mode);

/// Retired: binning has one strategy (src/render/binning.h). The type stays
/// only because perfbench/workloads.cpp passes its config fields to
/// bin_splats_into.
enum class BinningMode : std::uint8_t { kFlat };

/// Resident representation of the Gaussian cloud inside the renderer
/// (gaussian/compressed.h). Lives here, next to the other run modes, so
/// core's config can carry the knob without depending on the compressed
/// form's implementation.
///   kFloat32    — render from the full-precision float32 SoA (a compressed
///                 input is decoded up front into frame scratch)
///   kCompressed — keep only the fp16 SoA resident and decode fixed-size
///                 blocks on touch inside preprocess (half the resident
///                 bytes, the memory-bandwidth execution model of the
///                 129FPS Full-HD accelerator)
///   kVerify     — decode the full cloud up front AND stream-decode, then
///                 assert the two renders are bit-identical (the audit mode)
enum class ResidencyMode : std::uint8_t { kFloat32, kCompressed, kVerify };

/// Reads GSTG_RESIDENCY from the environment ("float32" / "compressed" /
/// "verify"). Unset returns `fallback`; any value but these throws (see
/// common/spelling_table.h).
ResidencyMode residency_mode_from_env(ResidencyMode fallback);

[[nodiscard]] const char* to_string(ResidencyMode mode);

}  // namespace gstg
