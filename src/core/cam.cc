#include "core/cam.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel_for.h"

namespace camal::core {

void ComputeCamRow(const nn::Tensor& feature_maps,
                   const nn::Tensor& head_weights, int64_t class_index,
                   int64_t ni, float* dst) {
  CAMAL_CHECK_EQ(feature_maps.ndim(), 3);
  CAMAL_CHECK_EQ(head_weights.ndim(), 2);
  CAMAL_CHECK_EQ(feature_maps.dim(1), head_weights.dim(1));
  CAMAL_CHECK_GE(class_index, 0);
  CAMAL_CHECK_LT(class_index, head_weights.dim(0));
  CAMAL_CHECK_GE(ni, 0);
  CAMAL_CHECK_LT(ni, feature_maps.dim(0));
  const int64_t k = feature_maps.dim(1), l = feature_maps.dim(2);
  std::fill(dst, dst + l, 0.0f);
  for (int64_t ki = 0; ki < k; ++ki) {
    const float w = head_weights.at2(class_index, ki);
    if (w == 0.0f) continue;
    const float* row = feature_maps.data() + (ni * k + ki) * l;
    for (int64_t t = 0; t < l; ++t) dst[t] += w * row[t];
  }
}

nn::Tensor ComputeCam(const nn::Tensor& feature_maps,
                      const nn::Tensor& head_weights, int64_t class_index) {
  CAMAL_CHECK_EQ(feature_maps.ndim(), 3);
  const int64_t n = feature_maps.dim(0), l = feature_maps.dim(2);
  nn::Tensor cam({n, l});
  ParallelFor(0, n, [&](int64_t ni) {
    ComputeCamRow(feature_maps, head_weights, class_index, ni,
                  cam.data() + ni * l);
  });
  return cam;
}

nn::Tensor NormalizeCamByMax(const nn::Tensor& cam) {
  CAMAL_CHECK_EQ(cam.ndim(), 2);
  nn::Tensor out = cam;
  const int64_t n = out.dim(0), l = out.dim(1);
  for (int64_t ni = 0; ni < n; ++ni) {
    NormalizeCamRowByMax(out.data() + ni * l, l);
  }
  return out;
}

void NormalizeCamRowByMax(float* row, int64_t l) {
  float max_v = row[0];
  for (int64_t t = 1; t < l; ++t) max_v = std::max(max_v, row[t]);
  if (max_v > 0.0f) {
    const float inv = 1.0f / max_v;
    for (int64_t t = 0; t < l; ++t) row[t] *= inv;
  } else {
    // No positive evidence anywhere in the window.
    for (int64_t t = 0; t < l; ++t) row[t] = 0.0f;
  }
}

nn::Tensor AverageCams(const std::vector<nn::Tensor>& cams) {
  CAMAL_CHECK(!cams.empty());
  nn::Tensor out = cams[0];
  for (size_t i = 1; i < cams.size(); ++i) {
    CAMAL_CHECK(cams[i].SameShape(out));
    out.AddInPlace(cams[i]);
  }
  out.ScaleInPlace(1.0f / static_cast<float>(cams.size()));
  return out;
}

}  // namespace camal::core
