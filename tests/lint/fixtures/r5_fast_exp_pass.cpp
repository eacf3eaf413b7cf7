// gstg-lint fixture: R5 must accept the lane-generic fast_exp and the libm
// functions that are not banned (std::exp2, std::log).
#include <cmath>

#include "common/simd.h"

namespace fixture {

float blend_alpha(float opacity, float q) {
  return opacity * gstg::fast_exp<1>(gstg::VecF32<1>::broadcast(-0.5f * q)).v[0];
}

float depth_weight(float t) { return std::exp2(-6.0f * t) + std::log(255.0f * t); }

}  // namespace fixture
