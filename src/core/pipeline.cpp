#include "core/pipeline.h"

#include "core/renderer.h"

namespace gstg {

RenderResult render_gstg(const GaussianCloud& cloud, const Camera& camera,
                         const GsTgConfig& config) {
  // One-shot form of the persistent renderer (core/renderer.h): a fresh
  // FrameContext per call, so the two paths are the same code and stay
  // bit-identical by construction.
  const Renderer renderer(config);
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);
  return RenderResult{std::move(ctx.image), ctx.times, ctx.counters};
}

GsTgFrameData build_gstg_frame(const GaussianCloud& cloud, const Camera& camera,
                               const GsTgConfig& config) {
  // The persistent renderer's steps up to the raster, so the simulator's
  // frame is the rendered frame and sees the same resolved config.
  const Renderer renderer(config);
  FrameContext ctx;
  renderer.prepare(cloud, camera, ctx);
  renderer.sort(ctx);
  return GsTgFrameData{std::move(ctx.splats), std::move(ctx.frame), ctx.counters};
}

}  // namespace gstg
