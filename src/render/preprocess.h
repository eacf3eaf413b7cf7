// Preprocessing stage: per-Gaussian feature computation and culling
// (paper Fig. 1, left). Produces the ProjectedSplat stream consumed by
// binning, sorting and rasterization.
#pragma once

#include <vector>

#include "camera/camera.h"
#include "common/annotations.h"
#include "gaussian/cloud.h"
#include "gaussian/compressed.h"
#include "render/types.h"

namespace gstg {

/// Reusable preprocessing buffers: one projection slot per input Gaussian
/// plus the survivor flags. Owned by the persistent renderer's FrameContext
/// so the steady state allocates nothing.
struct PreprocessScratch {
  std::vector<ProjectedSplat> slots;
  std::vector<std::uint8_t> keep;
};

/// Projects and culls the cloud for `camera`:
///  - frustum-culls by view-space centre (near plane + guard band),
///  - computes depth, 2D mean, EWA 2D covariance (+0.3 dilation), conic,
///  - evaluates the SH colour for the camera->splat direction,
///  - assigns the footprint extent rho (3-sigma or opacity-aware),
///  - drops splats with degenerate covariance or opacity below 1/255.
/// Output order equals cloud order (restricted to survivors), making all
/// downstream stages deterministic. Updates `counters.input_gaussians` and
/// `counters.visible_gaussians`. The projection/conic math runs through the
/// SIMD kernel selected by `config.simd` (render/simd_kernels.h); every
/// backend produces bit-identical splats.
std::vector<ProjectedSplat> preprocess(const GaussianCloud& cloud, const Camera& camera,
                                       const RenderConfig& config, RenderCounters& counters);

/// preprocess() into a caller-owned survivor vector, reusing `scratch`.
/// `out` is cleared first; its capacity (and the scratch buffers) persist
/// across calls.
GSTG_HOT_NOALLOC
void preprocess_into(const GaussianCloud& cloud, const Camera& camera,
                     const RenderConfig& config, RenderCounters& counters,
                     std::vector<ProjectedSplat>& out, PreprocessScratch& scratch);

/// Per-worker float32 staging for the streamed-decode preprocess: one small
/// chunk cloud per worker (kDecodeBlock Gaussians each), reused across
/// frames so the steady state allocates nothing. The float32 form of the
/// whole cloud never exists — resident state stays fp16.
struct DecodeScratch {
  std::vector<GaussianCloud> chunks;
};

/// Gaussians decoded per block in the streamed preprocess. A multiple of
/// every SIMD lane width (1/4/8), so block boundaries land exactly where
/// the full-cloud kernel's lane blocks do — the partial (masked) lane block
/// only ever occurs at the worker-chunk end, in both paths, which is what
/// makes the streamed decode bit-identical to the up-front decode.
inline constexpr std::size_t kDecodeBlock = 512;

/// Gaussians per scheduled preprocess chunk (the parallel_for_chunks grain of
/// both preprocess paths): four decode blocks, so every chunk starts
/// block- and lane-aligned while the pool balances the load.
inline constexpr std::size_t kPreprocessGrain = 4 * kDecodeBlock;

/// preprocess_into over the compressed resident form: per worker, decodes
/// kDecodeBlock-Gaussian blocks into `decode` scratch and runs the same
/// SIMD projection kernels over them. Output (splats, order, counters) is
/// bit-identical to preprocess_into(cloud.decode(), ...) (asserted per bench
/// scene by tests/core/test_residency.cpp).
GSTG_HOT_NOALLOC
void preprocess_compressed_into(const CompressedCloud& cloud, const Camera& camera,
                                const RenderConfig& config, RenderCounters& counters,
                                std::vector<ProjectedSplat>& out, PreprocessScratch& scratch,
                                DecodeScratch& decode);

}  // namespace gstg
