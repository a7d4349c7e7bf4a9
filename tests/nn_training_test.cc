// End-to-end substrate checks: optimizers reduce loss on toy problems,
// parameter serialization round-trips, checkpoints restore, and the
// training convolution agrees with a direct-loop oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parallel_for.h"
#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "reference_conv.h"

namespace camal::nn {
namespace {

using camal::testing::RandomInput;

// Force a multi-thread pool even on single-core machines so the thread-
// budget test really fans out; an explicit CAMAL_THREADS (e.g. from CI)
// wins.
const bool kThreadsForced = [] {
  setenv("CAMAL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// Fits y = 2x + 1 with a single linear unit.
double FitLinearRegression(Optimizer* opt, Linear* lin, int steps) {
  Rng rng(3);
  double last_loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    Tensor x({16, 1});
    Tensor y({16, 1});
    for (int64_t i = 0; i < 16; ++i) {
      const float xv = static_cast<float>(rng.Uniform(-1, 1));
      x.at2(i, 0) = xv;
      y.at2(i, 0) = 2.0f * xv + 1.0f;
    }
    Tensor pred = lin->Forward(x);
    LossResult loss = MeanSquaredError(pred, y);
    opt->ZeroGrad();
    lin->Backward(loss.grad);
    opt->Step();
    last_loss = loss.value;
  }
  return last_loss;
}

TEST(OptimizerTest, SgdFitsLinearRegression) {
  Rng rng(1);
  Linear lin(1, 1, true, &rng);
  Sgd sgd(lin.Parameters(), 0.1f, 0.9f);
  const double final_loss = FitLinearRegression(&sgd, &lin, 200);
  EXPECT_LT(final_loss, 1e-3);
  EXPECT_NEAR(lin.weight().value.at(0), 2.0f, 0.1f);
  EXPECT_NEAR(lin.bias_param().value.at(0), 1.0f, 0.1f);
}

TEST(OptimizerTest, AdamFitsLinearRegression) {
  Rng rng(1);
  Linear lin(1, 1, true, &rng);
  Adam adam(lin.Parameters(), 0.05f);
  const double final_loss = FitLinearRegression(&adam, &lin, 300);
  EXPECT_LT(final_loss, 1e-3);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Rng rng(1);
  Linear lin(4, 4, false, &rng);
  lin.weight().value.Fill(1.0f);
  Sgd sgd(lin.Parameters(), 0.1f, 0.0f, /*weight_decay=*/0.5f);
  // Zero gradient: only decay acts.
  lin.ZeroGrad();
  sgd.Step();
  for (int64_t i = 0; i < lin.weight().value.numel(); ++i) {
    EXPECT_NEAR(lin.weight().value.at(i), 0.95f, 1e-5);
  }
}

TEST(OptimizerTest, AdamStepChangesAllParameters) {
  Rng rng(2);
  Linear lin(3, 2, true, &rng);
  auto before = SnapshotParameters(&lin);
  Tensor x = RandomInput({4, 3}, 7);
  Tensor pred = lin.Forward(x);
  LossResult loss = MeanSquaredError(pred, Tensor::Full({4, 2}, 1.0f));
  Adam adam(lin.Parameters(), 0.01f);
  adam.ZeroGrad();
  lin.Backward(loss.grad);
  adam.Step();
  auto after = SnapshotParameters(&lin);
  bool changed = false;
  for (size_t p = 0; p < before.size(); ++p) {
    for (int64_t i = 0; i < before[p].numel(); ++i) {
      if (before[p].at(i) != after[p].at(i)) changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(TrainingTest, SmallCnnLearnsToSeparatePulses) {
  // Binary classification: windows with a rectangular pulse vs without.
  Rng rng(5);
  Sequential net;
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 4;
  opt.kernel_size = 5;
  opt.padding = 2;
  net.Add(std::make_unique<Conv1d>(opt, &rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<GlobalAvgPool1d>());
  net.Add(std::make_unique<Linear>(4, 2, true, &rng));

  Adam adam(net.Parameters(), 1e-2f);
  auto make_batch = [&](Tensor* x, std::vector<int>* labels) {
    *x = Tensor({16, 1, 32});
    labels->clear();
    for (int64_t i = 0; i < 16; ++i) {
      const bool positive = rng.Bernoulli(0.5);
      for (int64_t t = 0; t < 32; ++t) {
        x->at3(i, 0, t) = static_cast<float>(rng.Gaussian(0.0, 0.05));
      }
      if (positive) {
        const int64_t start = rng.UniformInt(0, 24);
        for (int64_t t = start; t < start + 8; ++t) x->at3(i, 0, t) += 1.0f;
      }
      labels->push_back(positive ? 1 : 0);
    }
  };

  double first_loss = 0.0, tail_loss = 0.0;
  constexpr int kSteps = 400;
  constexpr int kTail = 20;
  for (int step = 0; step < kSteps; ++step) {
    Tensor x;
    std::vector<int> labels;
    make_batch(&x, &labels);
    Tensor logits = net.Forward(x);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    if (step == 0) first_loss = loss.value;
    if (step >= kSteps - kTail) tail_loss += loss.value / kTail;
    adam.ZeroGrad();
    net.Backward(loss.grad);
    adam.Step();
  }
  EXPECT_LT(tail_loss, first_loss * 0.7);
  EXPECT_LT(tail_loss, 0.4);
}

struct ConvGeometry {
  int64_t cin, cout, k, stride, padding, dilation;
};

// The geometries of the Conv1dInferenceTest parity sweeps: same padding,
// strides 2-3, dilations 2-3, k = 1, cin = 1.
std::vector<ConvGeometry> ParityGeometries() {
  return {{1, 4, 7, 1, 3, 1}, {3, 8, 5, 1, 2, 1}, {4, 6, 3, 2, 1, 1},
          {2, 5, 3, 1, 2, 2}, {8, 16, 1, 1, 0, 1}, {2, 5, 3, 2, 1, 1},
          {3, 4, 3, 3, 0, 1}, {2, 6, 3, 1, 3, 3}, {4, 7, 5, 2, 4, 2},
          {1, 3, 4, 3, 2, 2}, {5, 2, 1, 2, 0, 1}};
}

Conv1dOptions OptionsFor(const ConvGeometry& g, bool bias) {
  Conv1dOptions opt;
  opt.in_channels = g.cin;
  opt.out_channels = g.cout;
  opt.kernel_size = g.k;
  opt.stride = g.stride;
  opt.padding = g.padding;
  opt.dilation = g.dilation;
  opt.bias = bias;
  return opt;
}

// max |a - b| / max(1, |b|): absolute for small values, relative for the
// large sums a weight gradient over a 32-sample batch reaches.
double MaxScaledDiff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double ref = b.at(i);
    worst = std::max(worst, std::abs(a.at(i) - ref) /
                                std::max(1.0, std::abs(ref)));
  }
  return worst;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Conv1dTrainingTest, ForwardMatchesDirectReference) {
  Rng rng(23);
  uint64_t seed = 23;
  for (const ConvGeometry& g : ParityGeometries()) {
    for (bool bias : {true, false}) {
      Conv1d conv(OptionsFor(g, bias), &rng);
      for (int64_t n : {1, 7, 32}) {
        for (int64_t lin : {17, 33, 41}) {
          if (conv.OutputLength(lin) <= 0) continue;
          Tensor x = RandomInput({n, g.cin, lin}, ++seed);
          EXPECT_LT(MaxScaledDiff(conv.Forward(x),
                                  testing::ReferenceConvForward(&conv, x)),
                    1e-4)
              << "cin=" << g.cin << " k=" << g.k << " stride=" << g.stride
              << " dil=" << g.dilation << " bias=" << bias << " n=" << n
              << " lin=" << lin;
        }
      }
    }
  }
}

TEST(Conv1dTrainingTest, BackwardMatchesDirectReference) {
  Rng rng(29);
  uint64_t seed = 29;
  for (const ConvGeometry& g : ParityGeometries()) {
    for (bool bias : {true, false}) {
      const Conv1dOptions opt = OptionsFor(g, bias);
      Conv1d conv(opt, &rng);
      for (int64_t n : {1, 7, 32}) {
        for (int64_t lin : {17, 33, 41}) {
          const int64_t lout = conv.OutputLength(lin);
          if (lout <= 0) continue;
          Tensor x = RandomInput({n, g.cin, lin}, ++seed);
          Tensor go1 = RandomInput({n, g.cout, lout}, ++seed);
          Tensor go2 = RandomInput({n, g.cout, lout}, ++seed);
          conv.ZeroGrad();
          conv.Forward(x);
          Tensor dx = conv.Backward(go1);
          const std::string where =
              "cin=" + std::to_string(g.cin) + " k=" + std::to_string(g.k) +
              " stride=" + std::to_string(g.stride) +
              " dil=" + std::to_string(g.dilation) +
              " bias=" + std::to_string(bias) + " n=" + std::to_string(n) +
              " lin=" + std::to_string(lin);
          const Tensor dx_ref = testing::ReferenceConvInputGrad(
              go1, conv.weight().value, opt, lin);
          const Tensor dw_ref = testing::ReferenceConvWeightGrad(x, go1, opt);
          const Tensor db_ref = testing::ReferenceConvBiasGrad(go1);
          EXPECT_LT(MaxScaledDiff(dx, dx_ref), 1e-4) << "dX " << where;
          EXPECT_LT(MaxScaledDiff(conv.weight().grad, dw_ref), 1e-4)
              << "dW " << where;
          if (bias) {
            EXPECT_LT(MaxScaledDiff(conv.bias_param().grad, db_ref), 1e-4)
                << "db " << where;
          }
          // A second Backward adds to the gradients; it does not replace
          // them.
          conv.Backward(go2);
          Tensor dw_sum = dw_ref;
          dw_sum.AddInPlace(testing::ReferenceConvWeightGrad(x, go2, opt));
          EXPECT_LT(MaxScaledDiff(conv.weight().grad, dw_sum), 1e-4)
              << "accumulated dW " << where;
          if (bias) {
            Tensor db_sum = db_ref;
            db_sum.AddInPlace(testing::ReferenceConvBiasGrad(go2));
            EXPECT_LT(MaxScaledDiff(conv.bias_param().grad, db_sum), 1e-4)
                << "accumulated db " << where;
          }
        }
      }
    }
  }
}

TEST(Conv1dTrainingTest, BackwardIsBitwiseIndependentOfThreadBudget) {
  // Samples fan out over the pool and weight-gradient partials fold in
  // sample order, so the pool width must not change a single bit. Batch
  // 37 leaves a partial sample block; both geometries pad, one strides.
  Rng rng(31);
  uint64_t seed = 31;
  for (const ConvGeometry& g :
       {ConvGeometry{16, 32, 9, 1, 4, 1}, ConvGeometry{4, 7, 5, 2, 4, 2}}) {
    Conv1d conv(OptionsFor(g, /*bias=*/true), &rng);
    const int64_t n = 37, lin = 64;
    Tensor x = RandomInput({n, g.cin, lin}, ++seed);
    Tensor go = RandomInput({n, g.cout, conv.OutputLength(lin)}, ++seed);
    struct Run {
      Tensor y, dx, dw, db;
    };
    auto run = [&] {
      conv.ZeroGrad();
      Run r;
      r.y = conv.Forward(x);
      r.dx = conv.Backward(go);
      r.dw = conv.weight().grad;
      r.db = conv.bias_param().grad;
      return r;
    };
    const Run wide = run();
    Run serial;
    {
      ParallelBudgetScope scope(1);
      serial = run();
    }
    EXPECT_TRUE(BitwiseEqual(wide.y, serial.y)) << "output, k=" << g.k;
    EXPECT_TRUE(BitwiseEqual(wide.dx, serial.dx)) << "dX, k=" << g.k;
    EXPECT_TRUE(BitwiseEqual(wide.dw, serial.dw)) << "dW, k=" << g.k;
    EXPECT_TRUE(BitwiseEqual(wide.db, serial.db)) << "db, k=" << g.k;
  }
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  const char* path = "/tmp/camal_params_test.bin";
  Rng rng(9);
  Linear a(6, 3, true, &rng);
  ASSERT_TRUE(SaveParameters(&a, path).ok());

  Rng rng2(1234);  // different init
  Linear b(6, 3, true, &rng2);
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  for (size_t p = 0; p < a.Parameters().size(); ++p) {
    const Tensor& av = a.Parameters()[p]->value;
    const Tensor& bv = b.Parameters()[p]->value;
    for (int64_t i = 0; i < av.numel(); ++i) EXPECT_EQ(av.at(i), bv.at(i));
  }
  std::remove(path);
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  const char* path = "/tmp/camal_params_mismatch.bin";
  Rng rng(9);
  Linear a(6, 3, true, &rng);
  ASSERT_TRUE(SaveParameters(&a, path).ok());
  Linear wrong(5, 3, true, &rng);
  Status st = LoadParameters(&wrong, path);
  EXPECT_FALSE(st.ok());
  std::remove(path);
}

TEST(SerializeTest, LoadRejectsMissingFile) {
  Rng rng(9);
  Linear a(2, 2, true, &rng);
  EXPECT_EQ(LoadParameters(&a, "/tmp/does_not_exist_camal.bin").code(),
            StatusCode::kIoError);
}

TEST(SerializeTest, SnapshotRestore) {
  Rng rng(9);
  Linear lin(4, 2, true, &rng);
  auto snapshot = SnapshotParameters(&lin);
  lin.weight().value.Fill(123.0f);
  RestoreParameters(&lin, snapshot);
  EXPECT_NE(lin.weight().value.at(0), 123.0f);
  EXPECT_EQ(lin.weight().value.at(0), snapshot[0].at(0));
}

}  // namespace
}  // namespace camal::nn
