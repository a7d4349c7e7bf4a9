#ifndef CAMAL_CORE_CAM_H_
#define CAMAL_CORE_CAM_H_

#include "nn/tensor.h"

namespace camal::core {

/// Class Activation Map (Definition II.1): for feature maps (N, K, L) and
/// head weights (num_classes, K), returns (N, L) with
///   CAM_c(n, t) = sum_k w[c, k] * f[n, k, t].
nn::Tensor ComputeCam(const nn::Tensor& feature_maps,
                      const nn::Tensor& head_weights, int64_t class_index);

/// Row \p ni of ComputeCam, written to the \p l = feature_maps.dim(2)
/// floats at \p dst: the same arithmetic as the full map, so a caller
/// that needs only some windows' CAMs gets bitwise-identical rows.
void ComputeCamRow(const nn::Tensor& feature_maps,
                   const nn::Tensor& head_weights, int64_t class_index,
                   int64_t ni, float* dst);

/// Per-sample max normalization (step 4 of §IV-B): each row of \p cam is
/// divided by its maximum value. Negative evidence stays negative — the
/// sign carries "appliance absent here" information that the attention
/// step relies on. Rows whose maximum is not positive are zeroed.
nn::Tensor NormalizeCamByMax(const nn::Tensor& cam);

/// NormalizeCamByMax of one row of \p l values, in place.
void NormalizeCamRowByMax(float* row, int64_t l);

/// Mean of \p cams (all (N, L), same shape): the ensemble CAM of step 4.
nn::Tensor AverageCams(const std::vector<nn::Tensor>& cams);

}  // namespace camal::core

#endif  // CAMAL_CORE_CAM_H_
