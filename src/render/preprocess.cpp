#include "render/preprocess.h"

#include <algorithm>

#include "common/parallel.h"
#include "render/simd_kernels.h"
#include "telemetry/trace.h"

namespace gstg {

std::vector<ProjectedSplat> preprocess(const GaussianCloud& cloud, const Camera& camera,
                                       const RenderConfig& config, RenderCounters& counters) {
  std::vector<ProjectedSplat> out;
  PreprocessScratch scratch;
  preprocess_into(cloud, camera, config, counters, out, scratch);
  return out;
}

void preprocess_into(const GaussianCloud& cloud, const Camera& camera,
                     const RenderConfig& config, RenderCounters& counters,
                     std::vector<ProjectedSplat>& out, PreprocessScratch& scratch) {
  const std::size_t n = cloud.size();
  counters.input_gaussians += n;

  // Slot-per-input so workers never contend; compacted afterwards. The
  // scratch buffers keep their capacity across frames.
  std::vector<ProjectedSplat>& slots = scratch.slots;
  if (slots.size() < n) slots.resize(n);
  std::vector<std::uint8_t>& keep = scratch.keep;
  keep.assign(n, 0);

  // Projection/conic math runs through the SIMD kernel table; backend is
  // resolved once per frame, and exact per-lane arithmetic makes the output
  // independent of the lane width (common/simd.h).
  const SimdKernels& kernels = simd_kernels(resolve_simd_backend(config.simd));
  PreprocessChunkArgs args;
  args.cloud = &cloud;
  args.camera = &camera;
  args.opacity_aware_rho = config.opacity_aware_rho;
  args.cam_pos = camera.position();
  args.slots = slots.data();
  args.keep = keep.data();

  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
    GSTG_SPAN("preprocess_chunk");
    kernels.preprocess_chunk(args, lo, hi);
  }, config.threads, kPreprocessGrain);

  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i]) out.push_back(slots[i]);
  }
  counters.visible_gaussians += out.size();
}

void preprocess_compressed_into(const CompressedCloud& cloud, const Camera& camera,
                                const RenderConfig& config, RenderCounters& counters,
                                std::vector<ProjectedSplat>& out, PreprocessScratch& scratch,
                                DecodeScratch& decode) {
  const std::size_t n = cloud.size();
  counters.input_gaussians += n;

  std::vector<ProjectedSplat>& slots = scratch.slots;
  if (slots.size() < n) slots.resize(n);
  std::vector<std::uint8_t>& keep = scratch.keep;
  keep.assign(n, 0);

  // One chunk cloud per worker index, sized before the parallel region so
  // the workers never touch the vector-of-clouds structure itself. Each is
  // warmed to a full block here, not by its first chunk: the pool may hand
  // a chunk to a worker that got none in earlier frames, and the steady
  // state must still allocate nothing.
  const std::size_t workers = planned_worker_count(n, config.threads);
  if (decode.chunks.size() < workers) decode.chunks.resize(workers);
  const std::size_t block = std::min(n, kDecodeBlock);
  for (std::size_t w = 0; w < workers; ++w) {
    if (decode.chunks[w].positions().capacity() < block) {
      cloud.decode_range(0, block, decode.chunks[w]);
    }
  }

  const SimdKernels& kernels = simd_kernels(resolve_simd_backend(config.simd));
  const Vec3 cam_pos = camera.position();

  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("preprocess_compressed_chunk");
    GaussianCloud& chunk = decode.chunks[worker];
    // Stream kDecodeBlock-sized blocks: decode into the worker's chunk
    // cloud, then run the kernel with chunk-local indices and slot/keep
    // pointers offset to the block's absolute position. Block starts are
    // lane-aligned relative to the chunk (512 is a multiple of every lane
    // width), so the masked partial lane block occurs exactly where the
    // full-cloud path has it: at the chunk end.
    for (std::size_t slo = lo; slo < hi; slo += kDecodeBlock) {
      const std::size_t send = slo + kDecodeBlock < hi ? slo + kDecodeBlock : hi;
      cloud.decode_range(slo, send, chunk);

      PreprocessChunkArgs args;
      args.cloud = &chunk;
      args.camera = &camera;
      args.opacity_aware_rho = config.opacity_aware_rho;
      args.cam_pos = cam_pos;
      args.slots = slots.data() + slo;
      args.keep = keep.data() + slo;
      kernels.preprocess_chunk(args, 0, send - slo);

      // The kernel stamped chunk-local indices; restore absolute ones so
      // binning/sorting/temporal reuse see the real cloud indices.
      for (std::size_t i = slo; i < send; ++i) {
        if (keep[i]) slots[i].index = static_cast<std::uint32_t>(i);
      }
    }
  }, config.threads, kPreprocessGrain);

  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i]) out.push_back(slots[i]);
  }
  counters.visible_gaussians += out.size();
}

}  // namespace gstg
