#include "gaussian/compressed.h"

#include <stdexcept>
#include <string>

namespace gstg {

CompressedCloud CompressedCloud::encode(const GaussianCloud& cloud) {
  const std::size_t n = cloud.size();
  CompressedCloud out;
  out.sh_degree_ = cloud.sh_degree();
  out.px_.reserve(n);
  out.py_.reserve(n);
  out.pz_.reserve(n);
  out.sx_.reserve(n);
  out.sy_.reserve(n);
  out.sz_.reserve(n);
  out.qw_.reserve(n);
  out.qx_.reserve(n);
  out.qy_.reserve(n);
  out.qz_.reserve(n);
  out.opacity_.reserve(n);
  out.sh_.reserve(n * cloud.sh_floats_per_gaussian());
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p = cloud.position(i);
    out.px_.emplace_back(p.x);
    out.py_.emplace_back(p.y);
    out.pz_.emplace_back(p.z);
    const Vec3 s = cloud.scale(i);
    out.sx_.emplace_back(s.x);
    out.sy_.emplace_back(s.y);
    out.sz_.emplace_back(s.z);
    const Quat q = cloud.rotation(i);
    out.qw_.emplace_back(q.w);
    out.qx_.emplace_back(q.x);
    out.qy_.emplace_back(q.y);
    out.qz_.emplace_back(q.z);
    out.opacity_.emplace_back(cloud.opacity(i));
  }
  for (const float c : cloud.sh_data()) out.sh_.emplace_back(c);
  return out;
}

void CompressedCloud::decode_range(std::size_t lo, std::size_t hi, GaussianCloud& out) const {
  if (lo > hi || hi > size()) {
    throw std::out_of_range("CompressedCloud::decode_range: [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + ") outside [0, " + std::to_string(size()) + ")");
  }
  if (out.sh_degree() != sh_degree_) out = GaussianCloud(sh_degree_);
  const std::size_t n = hi - lo;
  const std::size_t sh_stride = sh_floats_per_gaussian();

  // Written through the mutable SoA accessors (like the quantisation pass):
  // resize keeps capacity, so a warmed-up scratch cloud never allocates.
  std::vector<Vec3>& positions = out.positions();
  std::vector<Vec3>& scales = out.scales();
  std::vector<Quat>& rotations = out.rotations();
  std::vector<float>& opacities = out.opacities();
  std::vector<float>& sh = out.sh_data();
  positions.resize(n);
  scales.resize(n);
  rotations.resize(n);
  opacities.resize(n);
  sh.resize(n * sh_stride);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = lo + i;
    positions[i] = {px_[src].to_float(), py_[src].to_float(), pz_[src].to_float()};
    scales[i] = {sx_[src].to_float(), sy_[src].to_float(), sz_[src].to_float()};
    rotations[i] = {qw_[src].to_float(), qx_[src].to_float(), qy_[src].to_float(),
                    qz_[src].to_float()};
    opacities[i] = opacity_[src].to_float();
  }
  const Half* sh_src = sh_.data() + lo * sh_stride;
  for (std::size_t k = 0; k < n * sh_stride; ++k) sh[k] = sh_src[k].to_float();
}

GaussianCloud CompressedCloud::decode() const {
  GaussianCloud out(sh_degree_);
  decode_range(0, size(), out);
  return out;
}

}  // namespace gstg
