#include "sim/workload.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "../env_guard.h"
#include "../test_helpers.h"
#include "core/pipeline.h"
#include "render/pipeline.h"
#include "scene/scene.h"

namespace gstg {
namespace {

using testutil::make_camera;

struct Workloads {
  FrameWorkload gstg;
  FrameWorkload baseline;
  FrameWorkload gscore;
};

Workloads build_all(const GaussianCloud& cloud, const Camera& cam) {
  GsTgConfig gc;  // 16+64, Ellipse+Ellipse
  RenderConfig bc;
  bc.tile_size = 16;
  bc.boundary = Boundary::kEllipse;
  return {build_gstg_workload(cloud, cam, gc),
          build_tile_sorted_workload(cloud, cam, bc, "Baseline"),
          build_gscore_workload(cloud, cam, 16)};
}

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Camera cam = make_camera(320, 240);
    const GaussianCloud cloud = testutil::make_random_cloud(2000, 111);
    all_ = new Workloads(build_all(cloud, cam));
  }
  static void TearDownTestSuite() {
    delete all_;
    all_ = nullptr;
  }
  static const Workloads& all() { return *all_; }

 private:
  static Workloads* all_;
};

Workloads* WorkloadTest::all_ = nullptr;

TEST_F(WorkloadTest, UnitCountsMatchGrids) {
  // 320x240 at tile 16 -> 20x15 tiles; at group 64 -> 5x4 groups.
  EXPECT_EQ(all().gstg.tiles.size(), 300u);
  EXPECT_EQ(all().gstg.sorts.size(), 20u);
  EXPECT_EQ(all().gstg.bgm.size(), 20u);
  EXPECT_EQ(all().baseline.tiles.size(), 300u);
  EXPECT_EQ(all().baseline.sorts.size(), 300u);
  EXPECT_TRUE(all().baseline.bgm.empty());
  EXPECT_TRUE(all().gscore.bgm.empty());
}

TEST_F(WorkloadTest, GsTgSortVolumeFarBelowBaseline) {
  const auto volume = [](const FrameWorkload& w) {
    std::size_t pairs = 0;
    for (const SortUnit& s : w.sorts) pairs += s.n;
    return pairs;
  };
  EXPECT_LT(volume(all().gstg), volume(all().baseline));
}

TEST_F(WorkloadTest, RasterWorkIdenticalBetweenGsTgAndBaseline) {
  // Lossless: the filtered per-tile sequences equal the baseline lists, so
  // measured alpha evaluations match tile by tile.
  ASSERT_EQ(all().gstg.tiles.size(), all().baseline.tiles.size());
  for (std::size_t t = 0; t < all().gstg.tiles.size(); ++t) {
    EXPECT_EQ(all().gstg.tiles[t].alpha_evals, all().baseline.tiles[t].alpha_evals) << t;
    EXPECT_EQ(all().gstg.tiles[t].raster_entries, all().baseline.tiles[t].raster_entries) << t;
    EXPECT_EQ(all().gstg.tiles[t].pixels, all().baseline.tiles[t].pixels) << t;
  }
}

TEST_F(WorkloadTest, GsTgFilterLenIsGroupListLength) {
  for (const RasterUnit& t : all().gstg.tiles) {
    EXPECT_EQ(t.filter_len, all().gstg.sorts[t.sort_unit].n);
    EXPECT_LE(t.raster_entries, t.filter_len);
  }
  for (const RasterUnit& t : all().baseline.tiles) {
    EXPECT_EQ(t.filter_len, 0u);
  }
}

TEST_F(WorkloadTest, BgmTestsBoundedBySixteenPerEntry) {
  for (const BgmUnit& b : all().gstg.bgm) {
    EXPECT_LE(b.tests, b.entries * 16u);
  }
}

TEST_F(WorkloadTest, DramTrafficSmallerForGsTg) {
  // Group-shared feature fetches beat per-tile fetches.
  EXPECT_LT(all().gstg.feature_bytes, all().baseline.feature_bytes);
  EXPECT_LT(all().gstg.list_bytes, all().baseline.list_bytes);
  // Same params and framebuffer.
  EXPECT_EQ(all().gstg.param_bytes, all().baseline.param_bytes);
  EXPECT_EQ(all().gstg.framebuffer_bytes, all().baseline.framebuffer_bytes);
  EXPECT_LT(all().gstg.total_bytes(), all().baseline.total_bytes());
}

TEST_F(WorkloadTest, GscoreSubtileSkippingReducesAlphaEvals) {
  std::uint64_t gscore_evals = 0, full_evals = 0;
  for (const RasterUnit& t : all().gscore.tiles) gscore_evals += t.alpha_evals;
  for (const RasterUnit& t : all().baseline.tiles) full_evals += t.alpha_evals;
  // GSCore (OBB binning, more pairs) still evaluates less than full-tile
  // rasterization thanks to subtile skipping.
  EXPECT_LT(gscore_evals, full_evals);
  EXPECT_GT(gscore_evals, 0u);
}

TEST_F(WorkloadTest, GscoreUsesObbSoMorePairsThanEllipse) {
  std::size_t gscore_pairs = 0, ellipse_pairs = 0;
  for (const SortUnit& s : all().gscore.sorts) gscore_pairs += s.n;
  for (const SortUnit& s : all().baseline.sorts) ellipse_pairs += s.n;
  EXPECT_GE(gscore_pairs, ellipse_pairs);
}

TEST_F(WorkloadTest, PixelTotalsConsistent) {
  EXPECT_EQ(all().gstg.total_pixels, 320u * 240u);
  EXPECT_EQ(all().baseline.total_pixels, 320u * 240u);
  EXPECT_EQ(all().gscore.total_pixels, 320u * 240u);
}

TEST(Workload, GscoreRejectsBadSubtileSplit) {
  const Camera cam = make_camera(64, 64);
  const GaussianCloud cloud = testutil::make_random_cloud(50, 5);
  EXPECT_THROW(build_gscore_workload(cloud, cam, 16, 5), std::invalid_argument);
  EXPECT_THROW(build_gscore_workload(cloud, cam, 16, 0), std::invalid_argument);
}

TEST(Workload, SceneLevelShapeHolds) {
  // On a synthetic paper scene, GS-TG's aggregate sort volume shrinks by
  // roughly the grouping factor (16 tiles/group) relative to the baseline —
  // allow a loose band since footprints span groups too.
  const Scene scene = generate_scene("train", RunScale{8, 256});
  GsTgConfig gc;
  RenderConfig bc;
  bc.tile_size = 16;
  bc.boundary = Boundary::kEllipse;
  const FrameWorkload g = build_gstg_workload(scene.cloud, scene.camera, gc);
  const FrameWorkload b = build_tile_sorted_workload(scene.cloud, scene.camera, bc, "Baseline");
  std::size_t gp = 0, bp = 0;
  for (const SortUnit& s : g.sorts) gp += s.n;
  for (const SortUnit& s : b.sorts) bp += s.n;
  EXPECT_LT(static_cast<double>(gp), 0.8 * static_cast<double>(bp));
  EXPECT_GT(gp, 0u);
}

TEST(ConfigResolution, OneShotPathsRejectUnknownGstgVariables) {
  // The one-shot entry points see the environment the way the Renderer
  // constructor does: a misspelled GSTG_* variable is a typed error, never
  // silently ignored.
  const Camera cam = make_camera(64, 48);
  const GaussianCloud cloud = testutil::make_random_cloud(40, 9);
  testutil::EnvGuard typo("GSTG_THRAEDS");
  typo.set("2");
  const auto expect_names_typo = [](const char* path, const auto& call) {
    SCOPED_TRACE(path);
    try {
      call();
      ADD_FAILURE() << "should reject GSTG_THRAEDS";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("GSTG_THRAEDS"), std::string::npos) << e.what();
    }
  };
  expect_names_typo("build_gstg_frame", [&] { (void)build_gstg_frame(cloud, cam, GsTgConfig{}); });
  expect_names_typo("build_gstg_workload",
                    [&] { (void)build_gstg_workload(cloud, cam, GsTgConfig{}); });
  expect_names_typo("render_baseline",
                    [&] { (void)render_baseline(cloud, cam, RenderConfig{}); });

  // build_gstg_frame goes through resolved(): its frame carries concrete
  // modes, not the caller's auto values.
  typo.unset();
  const GsTgFrameData data = build_gstg_frame(cloud, cam, GsTgConfig{});
  EXPECT_NE(data.frame.config.threads, 0u);
  EXPECT_NE(data.frame.config.simd, SimdBackend::kAuto);
}

}  // namespace
}  // namespace gstg
