// GS-TG pipeline configuration: tile/group geometry and the boundary
// methods of the two identification steps (paper sections IV-B and VI-B).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/runconfig.h"
#include "geometry/intersect.h"
#include "render/sort_keys.h"
#include "render/types.h"

namespace gstg {

/// Per-Gaussian tile bitmask within a group. The hardware uses 16 bits
/// (4x4 tiles per group, the 16+64 configuration); the software pipeline
/// supports up to 64 tiles per group to cover the Fig. 11 sweep (8+64).
using TileMask = std::uint64_t;

struct GsTgConfig {
  int tile_size = 16;
  int group_size = 64;
  /// Boundary method of the group identification step.
  Boundary group_boundary = Boundary::kEllipse;
  /// Boundary method of the per-tile bitmask generation step.
  Boundary mask_boundary = Boundary::kEllipse;
  /// Opacity-aware footprint extent (FlashGS-style) instead of 3-sigma.
  bool opacity_aware_rho = false;
  /// Group-sort algorithm: packed-key radix, comparison sort, or kAuto
  /// (radix above the cutoff). All choices order identically.
  SortAlgo sort_algo = SortAlgo::kAuto;
  /// SIMD kernel backend for preprocess/rasterize (see common/simd.h):
  /// kAuto is the widest verified one (GSTG_SIMD overrides). resolved()
  /// makes it concrete; every backend renders bit-identical images.
  SimdBackend simd = SimdBackend::kAuto;
  /// Cross-frame group-sort reuse mode of the temporal renderer
  /// (src/temporal/temporal_renderer.h; GSTG_TEMPORAL overrides). kOff by
  /// default so the one-shot and batch paths are untouched; every mode is
  /// pixel-exact — reuse only happens when the cached order is provably the
  /// sorted order, and kVerify re-sorts to audit that proof.
  TemporalMode temporal = TemporalMode::kOff;
  /// Retired (binning has one strategy); kept only because perfbench names it.
  BinningMode binning = BinningMode::kFlat;
  /// Intra-frame workers; 0 = auto (GSTG_THREADS or hardware concurrency,
  /// resolved once by resolved()).
  std::size_t threads = 0;
  /// Starts the process-global trace collector (src/telemetry/trace.h) when
  /// a Renderer is constructed with this config. GSTG_TRACE=<path> does the
  /// same from the environment and additionally names the JSON written at
  /// process exit; with only `trace` set, the caller drains via
  /// telemetry::TraceSession::global().write(path). Tracing is
  /// observational: counters and images are bit-identical either way.
  bool trace = false;

  /// The RenderConfig this GS-TG config implies for the stages shared with
  /// the baseline pipeline (preprocessing, per-tile sorting in comparison
  /// runs). The single mapping keeps the one-shot and persistent renderers
  /// from drifting apart.
  [[nodiscard]] RenderConfig render_config() const {
    RenderConfig rc;
    rc.tile_size = tile_size;
    rc.boundary = mask_boundary;
    rc.opacity_aware_rho = opacity_aware_rho;
    rc.sort_algo = sort_algo;
    rc.simd = simd;
    rc.threads = threads;
    return rc;
  }

  /// Tiles per group side; group_size must be a positive multiple of
  /// tile_size so small tiles align perfectly inside groups (paper Fig. 8b —
  /// the alignment that makes the method lossless).
  [[nodiscard]] int tiles_per_side() const { return group_size / tile_size; }
  [[nodiscard]] int tiles_per_group() const { return tiles_per_side() * tiles_per_side(); }

  /// This config with the process environment applied and every mode
  /// concrete — the one place the env overrides are resolved; Renderer,
  /// TemporalRenderer and ServiceConfig::resolved() all call it at
  /// construction, so their frame paths never read the environment.
  /// threads == 0 becomes worker_thread_count() (GSTG_THREADS),
  /// GSTG_TEMPORAL overrides `temporal`, `simd` becomes
  /// resolve_simd_backend(simd) (kAuto honours GSTG_SIMD), and validate()
  /// runs. Throws std::invalid_argument on a malformed override, on any
  /// GSTG_* variable kGstgEnvVars does not list, or on inconsistent values.
  [[nodiscard]] GsTgConfig resolved() const;

  void validate() const {
    if (tile_size <= 0 || group_size <= 0) {
      throw std::invalid_argument("GsTgConfig: sizes must be positive");
    }
    if (group_size % tile_size != 0) {
      throw std::invalid_argument(
          "GsTgConfig: group_size must be a multiple of tile_size (tile alignment)");
    }
    if (tiles_per_group() > 64) {
      throw std::invalid_argument("GsTgConfig: more than 64 tiles per group (bitmask overflow)");
    }
  }

  /// True when the (group, mask) boundary pair guarantees pixel-exact
  /// equality with the baseline using `mask_boundary` tiles. Requires every
  /// tile-level hit to imply a group-level hit: the mask shape must be
  /// contained in the group shape (Ellipse ⊆ OBB ⊆ ... see core/pipeline.cpp
  /// notes). All combinations the paper evaluates satisfy this.
  [[nodiscard]] bool lossless_guaranteed() const {
    const auto rank = [](Boundary b) {
      switch (b) {
        case Boundary::kAabb:
          return 0;  // loosest
        case Boundary::kObb:
          return 1;
        case Boundary::kEllipse:
          return 2;  // tightest
      }
      return 0;
    };
    return rank(mask_boundary) >= rank(group_boundary);
  }
};

}  // namespace gstg
