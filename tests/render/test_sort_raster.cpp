#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "../test_helpers.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"

namespace gstg {
namespace {

using testutil::make_camera;

ProjectedSplat flat_splat(Vec2 center, float depth, float opacity, Vec3 rgb,
                          std::uint32_t index, float sigma_px = 4.0f) {
  ProjectedSplat s;
  s.center = center;
  s.cov = Sym2{sigma_px * sigma_px, 0.0f, sigma_px * sigma_px};
  s.conic = inverse(s.cov);
  s.depth = depth;
  s.opacity = opacity;
  s.rgb = rgb;
  s.rho = kThreeSigmaRho;
  s.index = index;
  s.q_max = alpha_cutoff_quad(opacity);
  return s;
}

TEST(SortCells, OrdersByDepthThenIndex) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(800, 5);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);
  RenderCounters counters;
  BinnedSplats bins = bin_splats(splats, g, Boundary::kEllipse, 0, counters);
  sort_cell_lists(bins, splats, 0, counters);

  for (int c = 0; c < g.cell_count(); ++c) {
    const auto list = bins.cell_list(c);
    for (std::size_t i = 1; i < list.size(); ++i) {
      const auto& a = splats[list[i - 1]];
      const auto& b = splats[list[i]];
      EXPECT_TRUE(a.depth < b.depth || (a.depth == b.depth && a.index < b.index))
          << "cell " << c << " pos " << i;
    }
  }
  EXPECT_EQ(counters.sort_pairs, counters.tile_pairs);
  EXPECT_GT(counters.sort_comparison_volume, 0.0);
}

TEST(SortCells, EqualDepthTieBreaksByIndex) {
  std::vector<ProjectedSplat> splats = {
      flat_splat({8, 8}, 2.0f, 0.5f, {1, 0, 0}, 5),
      flat_splat({8, 8}, 2.0f, 0.5f, {0, 1, 0}, 2),
      flat_splat({8, 8}, 2.0f, 0.5f, {0, 0, 1}, 9),
  };
  const CellGrid g = CellGrid::over_image(16, 16, 16);
  RenderCounters counters;
  BinnedSplats bins = bin_splats(splats, g, Boundary::kAabb, 1, counters);
  sort_cell_lists(bins, splats, 1, counters);
  const auto list = bins.cell_list(0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(splats[list[0]].index, 2u);
  EXPECT_EQ(splats[list[1]].index, 5u);
  EXPECT_EQ(splats[list[2]].index, 9u);
}

TEST(RasterizeTile, SingleOpaqueSplatPaintsItsColor) {
  Framebuffer fb(16, 16);
  // Splat centred exactly on the pixel centre of pixel (8, 8).
  const std::vector<ProjectedSplat> splats = {flat_splat({8.5f, 8.5f}, 1.0f, 0.99f, {1, 0, 0}, 0)};
  const std::vector<std::uint32_t> order = {0};
  const TileRasterStats stats = rasterize_tile(splats, order, 0, 0, 16, 16, fb);
  // At the centre alpha = 0.99 clamped -> nearly pure red.
  const Vec3 center = fb.at(8, 8);
  EXPECT_NEAR(center.x, 0.99f, 0.001f);
  EXPECT_NEAR(center.y, 0.0f, 1e-5f);
  EXPECT_EQ(stats.pixels, 256u);
  EXPECT_EQ(stats.alpha_computations, 256u);
  EXPECT_GT(stats.blend_ops, 0u);
  EXPECT_EQ(stats.pixel_list_work, 256u);
}

TEST(RasterizeTile, FrontToBackOcclusion) {
  Framebuffer fb(16, 16);
  // Opaque red in front of opaque green at the same position.
  const std::vector<ProjectedSplat> splats = {
      flat_splat({8.5f, 8.5f}, 1.0f, 0.99f, {1, 0, 0}, 0),
      flat_splat({8.5f, 8.5f}, 2.0f, 0.99f, {0, 1, 0}, 1),
  };
  const std::vector<std::uint32_t> order = {0, 1};  // sorted front-to-back
  rasterize_tile(splats, order, 0, 0, 16, 16, fb);
  const Vec3 c = fb.at(8, 8);
  EXPECT_GT(c.x, 0.95f);
  EXPECT_LT(c.y, 0.02f);  // green almost fully occluded
}

TEST(RasterizeTile, BlendingMatchesClosedForm) {
  Framebuffer fb(16, 16);
  // Two half-transparent splats: colour = a1 c1 + a2 c2 (1 - a1) at centre.
  const std::vector<ProjectedSplat> splats = {
      flat_splat({8, 8}, 1.0f, 0.5f, {1, 0, 0}, 0, 100.0f),  // huge sigma: flat alpha
      flat_splat({8, 8}, 2.0f, 0.5f, {0, 0, 1}, 1, 100.0f),
  };
  const std::vector<std::uint32_t> order = {0, 1};
  rasterize_tile(splats, order, 0, 0, 16, 16, fb);
  const Vec3 c = fb.at(8, 8);
  EXPECT_NEAR(c.x, 0.5f, 0.01f);
  EXPECT_NEAR(c.z, 0.5f * 0.5f, 0.01f);
}

TEST(RasterizeTile, AlphaThresholdSkipsFarPixels) {
  Framebuffer fb(32, 32);
  // Tiny splat in the corner of a large block: most pixels get alpha < 1/255.
  const std::vector<ProjectedSplat> splats = {flat_splat({4, 4}, 1.0f, 0.9f, {1, 1, 1}, 0, 1.0f)};
  const std::vector<std::uint32_t> order = {0};
  const TileRasterStats stats = rasterize_tile(splats, order, 0, 0, 32, 32, fb);
  // alpha_computations counts only in-footprint quad evaluations
  // (0 <= q <= 2 ln(255 sigma)); the reference count is enumerated here.
  const float q_max = 2.0f * std::log(255.0f * 0.9f);
  std::size_t in_range = 0;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      const Vec2 d{static_cast<float>(x) + 0.5f - 4.0f, static_cast<float>(y) + 0.5f - 4.0f};
      const float q = splats[0].conic.quad(d);
      if (!(q > q_max || q < 0.0f)) ++in_range;
    }
  }
  EXPECT_EQ(stats.alpha_computations, in_range);
  EXPECT_LT(stats.alpha_computations, 1024u);  // far pixels are not charged
  EXPECT_LT(stats.blend_ops, 200u);            // only pixels near the splat blend
  EXPECT_EQ(stats.pixel_list_work, 1024u);     // the Fig. 7 workload still counts all
  EXPECT_EQ(fb.at(31, 31).x, 0.0f);
}

TEST(RasterizeTile, AlphaCounterPinnedOnKnownScene) {
  // Regression pin for the counter-semantics fix: the in-range guard is
  // hoisted above the alpha-computation counter, so sim workloads charge the
  // RM datapath only for (pixel, splat) pairs it actually evaluates.
  Framebuffer fb(16, 16);
  const std::vector<ProjectedSplat> splats = {
      flat_splat({8.5f, 8.5f}, 1.0f, 0.9f, {1, 0, 0}, 0, 2.0f),
      flat_splat({2.5f, 2.5f}, 2.0f, 0.5f, {0, 1, 0}, 1, 1.5f),
  };
  const std::vector<std::uint32_t> order = {0, 1};
  const TileRasterStats stats = rasterize_tile(splats, order, 0, 0, 16, 16, fb);

  // Independent scalar reference with the documented semantics.
  std::size_t expected_alpha = 0, expected_blends = 0;
  for (const std::uint32_t id : order) {
    const ProjectedSplat& s = splats[id];
    const float q_max = 2.0f * std::log(255.0f * s.opacity);
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const Vec2 d{static_cast<float>(x) + 0.5f - s.center.x,
                     static_cast<float>(y) + 0.5f - s.center.y};
        const float q = s.conic.quad(d);
        if (q > q_max || q < 0.0f) continue;
        ++expected_alpha;
        const float alpha = std::min(kAlphaClamp, s.opacity * std::exp(-0.5f * q));
        if (alpha >= kAlphaThreshold) ++expected_blends;
      }
    }
  }
  EXPECT_EQ(stats.alpha_computations, expected_alpha);
  EXPECT_EQ(stats.blend_ops, expected_blends);
  // Stable absolute pin (16x16 tile, sigma 2 and 1.5 footprints): a change
  // to either the guard or the counter placement moves this number.
  EXPECT_EQ(stats.alpha_computations, 183u);
}

TEST(RasterizeTile, EarlyExitStopsWork) {
  Framebuffer fb(8, 8);
  // A stack of opaque splats: after a few, transmittance < 1e-4 everywhere
  // and the remaining splats must not be evaluated.
  std::vector<ProjectedSplat> splats;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 50; ++i) {
    splats.push_back(flat_splat({4, 4}, 1.0f + static_cast<float>(i), 0.99f, {1, 1, 1}, i, 50.0f));
    order.push_back(i);
  }
  const TileRasterStats stats = rasterize_tile(splats, order, 0, 0, 8, 8, fb);
  EXPECT_EQ(stats.early_exit_pixels, 64u);
  // T after k splats = 0.01^k; < 1e-4 after 2 -> ~3 evaluations per pixel.
  EXPECT_LT(stats.alpha_computations, 64u * 5u);
  EXPECT_EQ(stats.pixel_list_work, 64u * 50u);  // workload metric ignores exits
}

TEST(RasterizeTile, RejectsBadBlock) {
  Framebuffer fb(16, 16);
  const std::vector<ProjectedSplat> splats;
  const std::vector<std::uint32_t> order;
  EXPECT_THROW(rasterize_tile(splats, order, 0, 0, 17, 16, fb), std::invalid_argument);
  EXPECT_THROW(rasterize_tile(splats, order, -1, 0, 8, 8, fb), std::invalid_argument);
  EXPECT_THROW(rasterize_tile(splats, order, 8, 8, 8, 16, fb), std::invalid_argument);
}

TEST(RasterizeAll, CountersAggregateOverTiles) {
  const Camera cam = make_camera(128, 96);
  const GaussianCloud cloud = testutil::make_random_cloud(400, 13);
  RenderCounters counters;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, counters);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);
  BinnedSplats bins = bin_splats(splats, g, Boundary::kEllipse, 0, counters);
  sort_cell_lists(bins, splats, 0, counters);
  Framebuffer fb(cam.width(), cam.height());
  rasterize_all(bins, splats, fb, 0, counters);

  EXPECT_EQ(counters.total_pixels, static_cast<std::size_t>(128 * 96));
  EXPECT_GT(counters.alpha_computations, 0u);
  EXPECT_GE(counters.alpha_computations, counters.blend_ops);
  EXPECT_GE(counters.pixel_list_work, counters.alpha_computations);
  EXPECT_GT(counters.gaussians_per_pixel(), 0.0);
}

TEST(Framebuffer, PpmWriteAndMetrics) {
  Framebuffer a(8, 4), b(8, 4);
  a.at(3, 2) = {1.0f, 0.5f, 0.25f};
  EXPECT_EQ(max_abs_diff(a, a), 0.0f);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
  b.at(3, 2) = {0.5f, 0.5f, 0.25f};
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_LT(psnr(a, b), 100.0);
  const std::string path = ::testing::TempDir() + "/gstg_test.ppm";
  a.write_ppm(path);
  std::ifstream check(path, std::ios::binary);
  EXPECT_TRUE(check.good());
  std::string magic;
  check >> magic;
  EXPECT_EQ(magic, "P6");
}

TEST(Framebuffer, SizeMismatchThrows) {
  Framebuffer a(8, 4), b(4, 8);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
  EXPECT_THROW(psnr(a, b), std::invalid_argument);
  EXPECT_THROW(Framebuffer(0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace gstg
