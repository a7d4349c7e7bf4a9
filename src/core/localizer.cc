#include "core/localizer.h"

#include <cmath>
#include <vector>

#include "common/parallel_for.h"
#include "core/cam.h"
#include "nn/activations.h"

namespace camal::core {

CamalLocalizer::CamalLocalizer(CamalEnsemble* ensemble,
                               LocalizerOptions options)
    : ensemble_(ensemble), options_(options) {
  CAMAL_CHECK(ensemble != nullptr);
}

LocalizationResult CamalLocalizer::Localize(const nn::Tensor& inputs) {
  CAMAL_CHECK_EQ(inputs.ndim(), 3);
  const int64_t n = inputs.dim(0), l = inputs.dim(2);

  LocalizationResult result;
  // Step 1-2: ensemble probability through the batched inference runtime
  // (this also caches member feature maps).
  result.probabilities = ensemble_->DetectProbabilityBatched(inputs);

  const std::vector<EnsembleMember>& members = ensemble_->members();
  const float inv_members = 1.0f / static_cast<float>(members.size());
  result.ensemble_cam = nn::Tensor({n, l});
  result.status = nn::Tensor({n, l});
  ParallelFor(0, n, [&](int64_t i) {
    if (result.probabilities.at(i) <= options_.detection_threshold) {
      return;  // undetected: CAM and status rows stay 0 (step 2).
    }
    // Steps 3-4: per-member class-1 CAMs, max-normalized, averaged — the
    // arithmetic of ComputeCam -> NormalizeCamByMax -> AverageCams, one
    // detected row at a time.
    thread_local std::vector<float> member_cam;
    member_cam.resize(static_cast<size_t>(l));
    float* cam = member_cam.data();
    float* ens = result.ensemble_cam.data() + i * l;
    for (size_t m = 0; m < members.size(); ++m) {
      ComputeCamRow(members[m].model->feature_maps(),
                    members[m].model->head_weights(), /*class_index=*/1, i,
                    cam);
      NormalizeCamRowByMax(cam, l);
      for (int64_t t = 0; t < l; ++t) {
        ens[t] = m == 0 ? cam[t] : ens[t] + cam[t];
      }
    }
    for (int64_t t = 0; t < l; ++t) ens[t] *= inv_members;

    // Steps 5-6: attention-sigmoid and rounding. The attention mask
    // multiplies the CAM with the *standardized* window (the paper's
    // "considering the shape of the aggregate signal"): a timestamp is ON
    // when positive CAM evidence coincides with above-average power.
    // Without standardization the sigmoid rounding would degenerate to
    // sign(CAM) because raw power is always positive. First, per-window
    // standardization of the aggregate.
    double mean = 0.0, sq = 0.0;
    for (int64_t t = 0; t < l; ++t) {
      const double v = inputs.at3(i, 0, t);
      mean += v;
      sq += v * v;
    }
    mean /= static_cast<double>(l);
    double var = sq / static_cast<double>(l) - mean * mean;
    if (var < 0.0) var = 0.0;
    const float inv_std =
        var > 1e-12 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;

    for (int64_t t = 0; t < l; ++t) {
      float s = 0.0f;
      if (options_.use_attention) {
        const float x_std =
            (inputs.at3(i, 0, t) - static_cast<float>(mean)) * inv_std -
            options_.activation_z_gate;
        s = nn::SigmoidScalar(ens[t] * x_std);
        // Rounding at >= 0.5 would mark zero-evidence timestamps ON;
        // require positive CAM evidence coinciding with gated power
        // (cam > 0 and x_std > 0 <=> s > 0.5 with cam > 0).
        result.status.at2(i, t) = (ens[t] > 0.0f && s > 0.5f) ? 1.0f : 0.0f;
      } else {
        // Ablation: no input gating; sigmoid(CAM) >= 0.5 <=> CAM >= 0.
        s = nn::SigmoidScalar(ens[t]);
        result.status.at2(i, t) = s >= 0.5f ? 1.0f : 0.0f;
      }
    }
  });
  return result;
}

}  // namespace camal::core
