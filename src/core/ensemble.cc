#include "core/ensemble.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace camal::core {
namespace {

// Builds the (B, C, L) batch tensor and label vector for rows
// [begin, end) of `order`.
void MakeBatch(const data::WindowDataset& ds,
               const std::vector<int64_t>& order, size_t begin, size_t end,
               nn::Tensor* inputs, std::vector<int>* labels) {
  const int64_t b = static_cast<int64_t>(end - begin);
  const int64_t l = ds.window_length;
  *inputs = nn::Tensor({b, 1, l});
  labels->clear();
  labels->reserve(static_cast<size_t>(b));
  for (size_t i = begin; i < end; ++i) {
    const int64_t src = order[i];
    for (int64_t t = 0; t < l; ++t) {
      inputs->at3(static_cast<int64_t>(i - begin), 0, t) =
          ds.inputs.at3(src, 0, t);
    }
    labels->push_back(ds.weak_labels[static_cast<size_t>(src)]);
  }
}

}  // namespace

double EvaluateClassifierLoss(CamBackbone* model,
                              const data::WindowDataset& dataset) {
  CAMAL_CHECK_GT(dataset.size(), 0);
  model->SetTraining(false);
  constexpr int64_t kEvalBatch = 64;
  double total = 0.0;
  std::vector<int64_t> order(static_cast<size_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  int64_t done = 0;
  while (done < dataset.size()) {
    const int64_t b = std::min<int64_t>(kEvalBatch, dataset.size() - done);
    nn::Tensor inputs;
    std::vector<int> labels;
    MakeBatch(dataset, order, static_cast<size_t>(done),
              static_cast<size_t>(done + b), &inputs, &labels);
    // Inference-only forward (fused conv GEMM, no backward caches):
    // agrees with eval-mode Forward to float rounding, so the epoch a
    // fixed-seed training run early-stops on is unchanged (pinned by
    // EnsembleTest.EarlyStoppingSelectionIsReproducible).
    nn::Tensor logits = model->ForwardInference(inputs);
    total += nn::SoftmaxCrossEntropy(logits, labels).value *
             static_cast<double>(b);
    done += b;
  }
  return total / static_cast<double>(dataset.size());
}

double TrainClassifier(CamBackbone* model,
                       const data::WindowDataset& train_sub,
                       const data::WindowDataset& val_sub,
                       const ClassifierTrainConfig& config, Rng* rng) {
  CAMAL_CHECK_GT(train_sub.size(), 0);
  CAMAL_CHECK_GT(val_sub.size(), 0);
  nn::Adam optimizer(model->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  std::vector<int64_t> order(static_cast<size_t>(train_sub.size()));
  for (int64_t i = 0; i < train_sub.size(); ++i) {
    order[static_cast<size_t>(i)] = i;
  }

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<nn::Tensor> best_params = nn::SnapshotParameters(model);
  int bad_epochs = 0;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    model->SetTraining(true);
    rng->Shuffle(&order);
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          order.size(), begin + static_cast<size_t>(config.batch_size));
      nn::Tensor inputs;
      std::vector<int> labels;
      MakeBatch(train_sub, order, begin, end, &inputs, &labels);
      nn::Tensor logits = model->Forward(inputs);
      nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
      optimizer.ZeroGrad();
      model->Backward(loss.grad);
      optimizer.Step();
    }
    const double val_loss = EvaluateClassifierLoss(model, val_sub);
    if (val_loss < best_val - 1e-6) {
      best_val = val_loss;
      best_params = nn::SnapshotParameters(model);
      bad_epochs = 0;
    } else if (++bad_epochs > config.patience) {
      break;
    }
  }
  nn::RestoreParameters(model, best_params);
  model->SetTraining(false);
  return best_val;
}

Result<CamalEnsemble> CamalEnsemble::Train(
    const data::WindowDataset& train, const data::WindowDataset& validation,
    const EnsembleConfig& config, uint64_t seed) {
  if (train.size() < 5) {
    return Status::FailedPrecondition("too few training windows");
  }
  if (validation.size() == 0) {
    return Status::FailedPrecondition("empty validation set");
  }
  if (config.kernel_sizes.empty() || config.trials_per_kernel < 1 ||
      config.ensemble_size < 1) {
    return Status::InvalidArgument("invalid ensemble configuration");
  }

  Rng rng(seed);
  // Algorithm 1 line 1: split D_train into 80% train-sub / 20% val-sub.
  std::vector<int64_t> order(static_cast<size_t>(train.size()));
  for (int64_t i = 0; i < train.size(); ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(&order);
  const size_t n_val_sub =
      std::max<size_t>(1, order.size() / 5);
  std::vector<int64_t> val_idx(order.begin(),
                               order.begin() + static_cast<long>(n_val_sub));
  std::vector<int64_t> train_idx(order.begin() + static_cast<long>(n_val_sub),
                                 order.end());
  const data::WindowDataset train_sub = train.Subset(train_idx);
  const data::WindowDataset val_sub = train.Subset(val_idx);

  // Algorithm 1 lines 2-8: train trials_per_kernel models per kernel size
  // and score each on D_validation.
  std::vector<EnsembleMember> candidates;
  for (int64_t kp : config.kernel_sizes) {
    for (int trial = 0; trial < config.trials_per_kernel; ++trial) {
      Rng init_rng = rng.Fork();
      std::unique_ptr<CamBackbone> model;
      if (config.backbone == BackboneKind::kInception) {
        InceptionConfig ic;
        ic.kernel_size = kp;
        // 4f output channels vs the ResNet's 2f: halve the per-branch
        // width so both backbones feed comparable heads.
        ic.base_filters = std::max<int64_t>(2, config.base_filters / 2);
        model = std::make_unique<InceptionClassifier>(ic, &init_rng);
      } else {
        ResNetConfig rc;
        rc.kernel_size = kp;
        rc.base_filters = config.base_filters;
        model = std::make_unique<ResNetClassifier>(rc, &init_rng);
      }
      Rng train_rng = rng.Fork();
      TrainClassifier(model.get(), train_sub, val_sub, config.train,
                      &train_rng);
      EnsembleMember member;
      member.kernel_size = kp;
      member.validation_loss =
          EvaluateClassifierLoss(model.get(), validation);
      member.model = std::move(model);
      candidates.push_back(std::move(member));
    }
  }

  // Algorithm 1 line 9: keep the ensemble_size models with the lowest
  // validation loss.
  std::sort(candidates.begin(), candidates.end(),
            [](const EnsembleMember& a, const EnsembleMember& b) {
              return a.validation_loss < b.validation_loss;
            });
  const size_t keep = std::min<size_t>(
      candidates.size(), static_cast<size_t>(config.ensemble_size));
  candidates.resize(keep);
  return CamalEnsemble(std::move(candidates));
}

CamalEnsemble CamalEnsemble::Clone() {
  std::vector<EnsembleMember> members;
  members.reserve(members_.size());
  for (auto& m : members_) {
    Rng rng(0);  // weights are overwritten below
    EnsembleMember copy;
    copy.kernel_size = m.kernel_size;
    copy.validation_loss = m.validation_loss;
    // Copy the member's full config (depth, channels, classes — not just
    // the manifest fields) so replicas match structurally.
    if (m.model->kind() == BackboneKind::kInception) {
      const auto* src = static_cast<const InceptionClassifier*>(m.model.get());
      copy.model = std::make_unique<InceptionClassifier>(src->config(), &rng);
    } else {
      const auto* src = static_cast<const ResNetClassifier*>(m.model.get());
      copy.model = std::make_unique<ResNetClassifier>(src->config(), &rng);
    }
    const auto src_params = m.model->Parameters();
    const auto dst_params = copy.model->Parameters();
    CAMAL_CHECK_EQ(src_params.size(), dst_params.size());
    for (size_t i = 0; i < src_params.size(); ++i) {
      CAMAL_CHECK(dst_params[i]->value.SameShape(src_params[i]->value));
      dst_params[i]->value = src_params[i]->value;
    }
    const auto src_buffers = m.model->Buffers();
    const auto dst_buffers = copy.model->Buffers();
    CAMAL_CHECK_EQ(src_buffers.size(), dst_buffers.size());
    for (size_t i = 0; i < src_buffers.size(); ++i) {
      CAMAL_CHECK(dst_buffers[i]->SameShape(*src_buffers[i]));
      *dst_buffers[i] = *src_buffers[i];
    }
    copy.model->SetTraining(false);
    members.push_back(std::move(copy));
  }
  return CamalEnsemble(std::move(members));
}

std::vector<std::unique_ptr<CamalEnsemble>> CamalEnsemble::CloneReplicas(
    int count) {
  CAMAL_CHECK_GE(count, 0);
  std::vector<std::unique_ptr<CamalEnsemble>> replicas;
  replicas.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    replicas.push_back(std::make_unique<CamalEnsemble>(Clone()));
  }
  return replicas;
}

nn::Tensor CamalEnsemble::MeanClassOneProbability(const nn::Tensor& inputs,
                                                  bool use_inference_path) {
  CAMAL_CHECK(!members_.empty());
  const int64_t n = inputs.dim(0);
  nn::Tensor prob({n});
  // Members voting on each window. A member whose logits overflowed to
  // +-Inf or NaN — possible only on readings far outside any physical
  // range — has a NaN softmax there and abstains; a window every member
  // abstains from reads 0 (undetected). Finite windows average all members.
  std::vector<int32_t> voters(static_cast<size_t>(n), 0);
  for (auto& member : members_) {
    member.model->SetTraining(false);
    nn::Tensor logits = use_inference_path
                            ? member.model->ForwardInference(inputs)
                            : member.model->Forward(inputs);
    nn::Tensor p = nn::Softmax(logits);
    for (int64_t i = 0; i < n; ++i) {
      const float q = p.at2(i, 1);
      if (std::isnan(q)) continue;
      prob.at(i) += q;
      ++voters[static_cast<size_t>(i)];
    }
  }
  const int32_t all = static_cast<int32_t>(members_.size());
  const float inv_all = 1.0f / static_cast<float>(all);
  for (int64_t i = 0; i < n; ++i) {
    const int32_t v = voters[static_cast<size_t>(i)];
    if (v == all) {
      prob.at(i) *= inv_all;
    } else if (v > 0) {
      prob.at(i) *= 1.0f / static_cast<float>(v);
    }
  }
  return prob;
}

nn::Tensor CamalEnsemble::DetectProbability(const nn::Tensor& inputs) {
  return MeanClassOneProbability(inputs, /*use_inference_path=*/false);
}

nn::Tensor CamalEnsemble::DetectProbabilityBatched(const nn::Tensor& inputs) {
  return MeanClassOneProbability(inputs, /*use_inference_path=*/true);
}

int64_t CamalEnsemble::NumParameters() const {
  int64_t total = 0;
  for (const auto& m : members_) total += m.model->NumParameters();
  return total;
}

}  // namespace camal::core
