#include "render/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace gstg {
namespace {

Framebuffer noise_image(int w, int h, unsigned seed, float lo = 0.0f, float hi = 1.0f) {
  Framebuffer fb(w, h);
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  for (Vec3& p : fb.pixels()) p = {dist(gen), dist(gen), dist(gen)};
  return fb;
}

TEST(Ssim, IdenticalImagesScoreOne) {
  const Framebuffer a = noise_image(64, 48, 1);
  EXPECT_DOUBLE_EQ(ssim(a, a), 1.0);
}

TEST(Ssim, UncorrelatedNoiseScoresLow) {
  const Framebuffer a = noise_image(64, 48, 2);
  const Framebuffer b = noise_image(64, 48, 3);
  EXPECT_LT(ssim(a, b), 0.2);
}

TEST(Ssim, SmallPerturbationScoresHigh) {
  const Framebuffer a = noise_image(64, 48, 4);
  Framebuffer b = a;
  std::mt19937 gen(5);
  std::normal_distribution<float> jitter(0.0f, 0.004f);
  for (Vec3& p : b.pixels()) {
    p.x = std::clamp(p.x + jitter(gen), 0.0f, 1.0f);
    p.y = std::clamp(p.y + jitter(gen), 0.0f, 1.0f);
    p.z = std::clamp(p.z + jitter(gen), 0.0f, 1.0f);
  }
  EXPECT_GT(ssim(a, b), 0.95);
}

TEST(Ssim, OrderedBetweenDegradations) {
  const Framebuffer a = noise_image(64, 48, 6);
  Framebuffer mild = a, harsh = a;
  std::mt19937 gen(7);
  std::normal_distribution<float> small(0.0f, 0.01f);
  std::normal_distribution<float> large(0.0f, 0.1f);
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    mild.pixels()[i].x = std::clamp(a.pixels()[i].x + small(gen), 0.0f, 1.0f);
    harsh.pixels()[i].x = std::clamp(a.pixels()[i].x + large(gen), 0.0f, 1.0f);
  }
  EXPECT_GT(ssim(a, mild), ssim(a, harsh));
}

TEST(Ssim, RejectsBadInput) {
  const Framebuffer a = noise_image(64, 48, 8);
  const Framebuffer b = noise_image(48, 64, 9);
  EXPECT_THROW(ssim(a, b), std::invalid_argument);
  const Framebuffer tiny(4, 4);
  EXPECT_THROW(ssim(tiny, tiny), std::invalid_argument);
}

TEST(ChannelPsnr, InfinityForIdentical) {
  const Framebuffer a = noise_image(32, 32, 10);
  const ChannelPsnr p = channel_psnr(a, a);
  EXPECT_TRUE(std::isinf(p.r));
  EXPECT_TRUE(std::isinf(p.g));
  EXPECT_TRUE(std::isinf(p.b));
}

TEST(ChannelPsnr, KnownUniformError) {
  Framebuffer a(32, 32), b(32, 32);
  for (Vec3& p : b.pixels()) p = {0.1f, 0.0f, 0.0f};  // red MSE = 0.01
  const ChannelPsnr p = channel_psnr(a, b);
  EXPECT_NEAR(p.r, 20.0, 1e-4);  // 10 log10(1/0.01)
  EXPECT_TRUE(std::isinf(p.g));
  EXPECT_TRUE(std::isinf(p.b));
}

TEST(ImageQuality, ConstantOffsetHasAnalyticPsnr) {
  // Every channel differs by exactly 0.1, so MSE = 0.01 against peak 1.0:
  // PSNR = 10 log10(1 / 0.01) = 20 dB.
  Framebuffer a(32, 32), b(32, 32);
  for (Vec3& p : a.pixels()) p = {0.5f, 0.5f, 0.5f};
  for (Vec3& p : b.pixels()) p = {0.6f, 0.6f, 0.6f};
  EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
  const double s = ssim(a, b);
  EXPECT_LT(s, 1.0);
  EXPECT_GE(s, -1.0);
}

TEST(ChannelPsnr, SizeMismatchThrows) {
  Framebuffer a(32, 32), b(16, 16);
  EXPECT_THROW(channel_psnr(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace gstg
