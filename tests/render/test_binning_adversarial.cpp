// Adversarial footprint corpus for the binning stage. The corpus targets the
// pre-hardening failure modes: unclamped float→int casts in candidate_cells
// (UB under UBSan for huge rho), silent uint32 CSR prefix-sum wrap, and the
// int product overflow of CellGrid::cell_count(). Runs under the ASan/UBSan and TSan presets via
// the render label.
#include "render/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace gstg {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

ProjectedSplat make_splat(Vec2 center, Sym2 cov, float depth = 1.0f, std::uint32_t index = 0,
                          float rho = kThreeSigmaRho) {
  ProjectedSplat s;
  s.center = center;
  s.cov = cov;
  // Singular / non-finite covariances have no inverse; binning must still
  // survive the resulting NaN conic, so feed it one instead of throwing.
  try {
    s.conic = inverse(cov);
  } catch (const std::exception&) {
    s.conic = Sym2{kNaN, kNaN, kNaN};
  }
  s.depth = depth;
  s.opacity = 0.9f;
  s.rho = rho;
  s.index = index;
  return s;
}

/// The adversarial corpus: degenerate conics, non-finite means, huge rho,
/// fully off-screen splats — everything the float→cell math must survive.
std::vector<ProjectedSplat> adversarial_corpus() {
  std::vector<ProjectedSplat> splats;
  std::uint32_t index = 0;
  const auto add = [&](ProjectedSplat s) {
    s.index = index;
    s.depth = 1.0f + 0.25f * static_cast<float>(index);
    ++index;
    splats.push_back(s);
  };
  // Huge rho: AABB extent ~1e15 px, the original unclamped-cast UB trigger.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, 1e30f));
  // Infinite rho: honest full-cover box.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, kInf));
  // NaN rho.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, kNaN));
  // Negative rho: the ellipse test rejects even its own center's cell.
  add(make_splat({40, 40}, Sym2{1, 0, 1}, 1.0f, 0, -1.0f));
  // Non-finite means.
  add(make_splat({kNaN, 40}, Sym2{1, 0, 1}));
  add(make_splat({kInf, 40}, Sym2{1, 0, 1}));
  add(make_splat({-kInf, -kInf}, Sym2{1, 0, 1}));
  // NaN / infinite covariance (conic follows through inverse()).
  add(make_splat({40, 40}, Sym2{kNaN, 0, 1}));
  add(make_splat({40, 40}, Sym2{kInf, 0, kInf}));
  // Singular covariance: inverse() divides by a zero determinant.
  add(make_splat({40, 40}, Sym2{1, 1, 1}));
  add(make_splat({40, 40}, Sym2{0, 0, 0}));
  // Fully off-screen, near and astronomically far.
  add(make_splat({-500, -500}, Sym2{4, 0, 4}));
  add(make_splat({1e30f, 1e30f}, Sym2{4, 0, 4}));
  // Anchor splats with sane footprints so hit sets are non-trivial.
  add(make_splat({10, 10}, Sym2{2, 0, 2}));
  add(make_splat({60, 30}, Sym2{80, 20, 60}));
  add(make_splat({0.5f, 0.5f}, Sym2{0.25f, 0, 0.25f}));
  return splats;
}

void expect_identical(const BinnedSplats& a, const BinnedSplats& b, const char* what) {
  ASSERT_EQ(a.offsets, b.offsets) << what;
  EXPECT_EQ(a.splat_ids, b.splat_ids) << what;
}

// --- candidate_cells hardening -------------------------------------------

TEST(CandidateCellsAdversarial, HugeRhoCoversFullGridWithoutUb) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  // Pre-fix this cast was UB (float ~1e15 → int); the clamped math must
  // report the honest answer: the box covers every cell.
  const TileRange r = candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, 1e30f), g);
  EXPECT_EQ(r.tx0, 0);
  EXPECT_EQ(r.ty0, 0);
  EXPECT_EQ(r.tx1, g.cells_x);
  EXPECT_EQ(r.ty1, g.cells_y);
}

TEST(CandidateCellsAdversarial, NonFiniteBoxesAreRejectedOrFullCover) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  // NaN anywhere in the box → empty range.
  EXPECT_TRUE(candidate_cells(make_splat({kNaN, 40}, Sym2{1, 0, 1}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({40, 40}, Sym2{kNaN, 0, 1}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, kNaN), g).empty());
  // +inf center: the box is [inf, inf] — ordered, past the grid, empty.
  EXPECT_TRUE(candidate_cells(make_splat({kInf, 40}, Sym2{1, 0, 1}), g).empty());
  // Infinite rho: ordered [-inf, +inf] box, honest full cover.
  const TileRange full = candidate_cells(make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, kInf), g);
  EXPECT_EQ(full.count(), static_cast<long long>(g.cell_count()));
}

TEST(CandidateCellsAdversarial, FarOffscreenSplatsAreEmpty) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  EXPECT_TRUE(candidate_cells(make_splat({-500, -500}, Sym2{4, 0, 4}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({1e30f, 1e30f}, Sym2{4, 0, 4}), g).empty());
  EXPECT_TRUE(candidate_cells(make_splat({-1e30f, 50}, Sym2{4, 0, 4}), g).empty());
}

TEST(CandidateCellsAdversarial, OneByOneCellGrid) {
  const CellGrid g = CellGrid::over_image(8, 8, 16);  // one cell covers the image
  ASSERT_EQ(g.cell_count(), 1);
  EXPECT_EQ(candidate_cells(make_splat({4, 4}, Sym2{1, 0, 1}), g).count(), 1);
  EXPECT_EQ(candidate_cells(make_splat({4, 4}, Sym2{1, 0, 1}, 1, 0, 1e30f), g).count(), 1);
  EXPECT_TRUE(candidate_cells(make_splat({kNaN, 4}, Sym2{1, 0, 1}), g).empty());
}

// --- overflow guards ------------------------------------------------------

TEST(BinningOverflow, CsrPrefixSumThrowsTypedErrorInsteadOfWrapping) {
  // 3 cells of ~2^31 entries each: the old uint32 running sum wrapped
  // silently and scattered out of bounds. A real workload of this size is
  // not constructible in a test, so the guard is probed directly.
  std::vector<std::uint32_t> counts = {0x80000000u, 0x80000000u, 0x80000000u};
  std::vector<std::uint32_t> offsets;
  EXPECT_THROW(csr_offsets_from_counts(counts, counts.size(), offsets), BinningError);

  // Sane counts produce ordinary CSR offsets.
  std::vector<std::uint32_t> ok = {3, 0, 2};
  EXPECT_EQ(csr_offsets_from_counts(ok, ok.size(), offsets), 5u);
  EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 3, 3, 5}));

  // Two chunk rows of three cells: the sum runs cell-major, chunk-minor,
  // and each row becomes its chunk's scatter cursors.
  std::vector<std::uint32_t> rows = {3, 0, 2,   // chunk 0
                                     1, 4, 0};  // chunk 1
  EXPECT_EQ(csr_offsets_from_counts(rows, 3, offsets), 10u);
  EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 4, 8, 10}));
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{0, 4, 8, 3, 4, 10}));

  // The exact boundary: a total of 2^32 - 1 still fits, also when it is
  // spread over several rows.
  std::vector<std::uint32_t> edge = {0xFFFFFFFEu, 1};
  EXPECT_EQ(csr_offsets_from_counts(edge, edge.size(), offsets), 0xFFFFFFFFu);
  std::vector<std::uint32_t> over = {0xFFFFFFFEu, 2};
  EXPECT_THROW(csr_offsets_from_counts(over, over.size(), offsets), BinningError);
  std::vector<std::uint32_t> over_rows = {0xFFFFFFFEu, 2};
  EXPECT_THROW(csr_offsets_from_counts(over_rows, 1, offsets), BinningError);
}

TEST(BinningOverflow, CellCountProductGuarded) {
  // 2e9 x 2e9 cells: each dimension fits an int, the product does not.
  EXPECT_THROW(CellGrid::over_image(2000000000, 2000000000, 1), BinningError);
  // A big-but-valid grid still constructs.
  const CellGrid g = CellGrid::over_image(40000, 40000, 1);
  EXPECT_EQ(g.cell_count(), 1600000000);
}

TEST(BinningOverflow, TileRectFarIndicesStayFinite) {
  // (tx + 1) * tile_size overflowed int for far-out indices; the widened
  // math must produce an ordinary (if empty-intersection) rectangle.
  const int big = std::numeric_limits<int>::max() / 16;
  const Rect r = tile_rect(big, big, 16, 100, 100);
  EXPECT_TRUE(std::isfinite(r.x0));
  EXPECT_TRUE(std::isfinite(r.y0));
  EXPECT_FLOAT_EQ(r.x0, static_cast<float>(static_cast<long long>(big) * 16));
  EXPECT_FLOAT_EQ(r.x1, 100.0f);  // clipped to the image
}

// --- adversarial corpus through the binning pass ---------------------------

TEST(BinningAdversarial, CorpusBinsIdenticallyInEveryModeAndBoundary) {
  // Every boundary, at every thread count: the same byte-identical CSR,
  // each cell list in ascending splat order.
  const std::vector<ProjectedSplat> splats = adversarial_corpus();
  for (const int cell : {16, 64, 256}) {  // 256 > image: a 1×1-cell grid
    const CellGrid g = CellGrid::over_image(128, 96, cell);
    for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
      SCOPED_TRACE(std::string(to_string(b)) + " cell " + std::to_string(cell));
      RenderCounters c1;
      const BinnedSplats one = bin_splats(splats, g, b, 1, c1);
      EXPECT_EQ(one.splat_ids.size(), c1.tile_pairs);
      for (int c = 0; c < g.cell_count(); ++c) {
        const auto list = one.cell_list(c);
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end())) << "cell " << c;
      }
      for (const std::size_t threads : {2u, 4u}) {
        RenderCounters cn;
        const BinnedSplats many = bin_splats(splats, g, b, threads, cn);
        expect_identical(one, many, to_string(b));
        EXPECT_EQ(c1.tile_pairs, cn.tile_pairs);
        EXPECT_EQ(c1.splats_multi_tile, cn.splats_multi_tile);
      }
    }
  }
}

TEST(BinningAdversarial, HugeRhoSplatHitsEveryCellUnderAabb) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, 1e30f)};
  RenderCounters c;
  const BinnedSplats bins = bin_splats(splats, g, Boundary::kAabb, 1, c);
  // Pre-fix the unclamped cast produced an empty range and silently
  // dropped a screen-covering splat.
  EXPECT_EQ(c.tile_pairs, static_cast<std::size_t>(g.cell_count()));
  EXPECT_EQ(bins.splat_ids.size(), static_cast<std::size_t>(g.cell_count()));
}

TEST(BinningAdversarial, NonFiniteSplatsProduceNoPairs) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {
      make_splat({kNaN, 40}, Sym2{1, 0, 1}, 1.0f, 0),
      make_splat({40, kNaN}, Sym2{1, 0, 1}, 1.5f, 1),
      make_splat({kInf, kInf}, Sym2{1, 0, 1}, 2.0f, 2),
      make_splat({40, 40}, Sym2{1, 0, 1}, 2.5f, 3, kNaN),
  };
  for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
    RenderCounters c;
    bin_splats(splats, g, b, 1, c);
    EXPECT_EQ(c.tile_pairs, 0u) << to_string(b);
  }
}

TEST(BinningAdversarial, NegativeRhoRejectsEvenItsOwnCellUnderEllipse) {
  const CellGrid g = CellGrid::over_image(128, 96, 16);
  const std::vector<ProjectedSplat> splats = {make_splat({40, 40}, Sym2{1, 0, 1}, 1, 0, -1.0f)};
  RenderCounters ce, ca;
  bin_splats(splats, g, Boundary::kEllipse, 1, ce);
  bin_splats(splats, g, Boundary::kAabb, 1, ca);
  // The ellipse test rejects the center's own cell (min distance 0 > rho).
  EXPECT_EQ(ce.tile_pairs, 0u);
  EXPECT_EQ(ca.tile_pairs, 1u);
}

}  // namespace
}  // namespace gstg
