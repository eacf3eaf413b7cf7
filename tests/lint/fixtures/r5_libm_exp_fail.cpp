// gstg-lint fixture: R5 must flag std::exp in hot scope — the raster
// kernels' exponential is fast_exp, never a per-lane libm call.
#include <cmath>

namespace fixture {

float blend_alpha(float opacity, float q) { return opacity * std::exp(-0.5f * q); }

}  // namespace fixture
