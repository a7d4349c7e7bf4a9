#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/ensemble.h"
#include "core/resnet.h"
#include "nn/activations.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/gemm.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/tensor.h"
#include "reference_conv.h"

namespace camal {
namespace {

nn::Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  nn::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

double MaxAbsDiff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return max_diff;
}

TEST(GemmTest, MatchesNaiveProduct) {
  Rng rng(11);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                         {3, 5, 7},
                         {4, 8, 8},
                         {9, 17, 23},
                         {32, 112, 128}}) {
    nn::Tensor a = RandomTensor({m, k}, &rng);
    nn::Tensor b = RandomTensor({k, n}, &rng);
    nn::Tensor fast = nn::MatMul(a, b);
    nn::Tensor naive({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = 0; j < n; ++j) {
          naive.at2(i, j) += a.at2(i, p) * b.at2(p, j);
        }
      }
    }
    EXPECT_LT(MaxAbsDiff(fast, naive), 1e-4)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Conv1dInferenceTest, AgreesWithForwardAcrossGeometries) {
  // Training Forward shares ForwardInference's kernel, so the oracle is
  // the direct-loop reference convolution.
  Rng rng(5);
  struct Geometry {
    int64_t cin, cout, k, stride, padding, dilation;
  };
  for (const Geometry& g : {Geometry{1, 4, 7, 1, 3, 1},
                            Geometry{3, 8, 5, 1, 2, 1},
                            Geometry{4, 6, 3, 2, 1, 1},
                            Geometry{2, 5, 3, 1, 2, 2},
                            Geometry{8, 16, 1, 1, 0, 1}}) {
    nn::Conv1dOptions opt;
    opt.in_channels = g.cin;
    opt.out_channels = g.cout;
    opt.kernel_size = g.k;
    opt.stride = g.stride;
    opt.padding = g.padding;
    opt.dilation = g.dilation;
    nn::Conv1d conv(opt, &rng);
    nn::Tensor x = RandomTensor({3, g.cin, 40}, &rng);
    nn::Tensor slow = testing::ReferenceConvForward(&conv, x);
    nn::Tensor fast = conv.ForwardInference(x);
    EXPECT_LT(MaxAbsDiff(slow, fast), 1e-5)
        << "cin=" << g.cin << " k=" << g.k << " stride=" << g.stride
        << " dil=" << g.dilation;
  }
}

TEST(Conv1dInferenceTest, StridedDilatedParityAcrossBatchesAndLengths) {
  // The generalized implicit-im2col kernel serves every geometry; sweep
  // stride/dilation combinations over batch sizes {1, 7, 32} and odd
  // input lengths (partial tiles, short outputs, output tails).
  Rng rng(17);
  struct Geometry {
    int64_t cin, cout, k, stride, padding, dilation;
  };
  for (const Geometry& g : {Geometry{2, 5, 3, 2, 1, 1},
                            Geometry{3, 4, 3, 3, 0, 1},
                            Geometry{2, 6, 3, 1, 3, 3},
                            Geometry{4, 7, 5, 2, 4, 2},
                            Geometry{1, 3, 4, 3, 2, 2},
                            Geometry{5, 2, 1, 2, 0, 1}}) {
    nn::Conv1dOptions opt;
    opt.in_channels = g.cin;
    opt.out_channels = g.cout;
    opt.kernel_size = g.k;
    opt.stride = g.stride;
    opt.padding = g.padding;
    opt.dilation = g.dilation;
    nn::Conv1d conv(opt, &rng);
    for (int64_t n : {1, 7, 32}) {
      for (int64_t lin : {17, 33, 41}) {
        if (conv.OutputLength(lin) <= 0) continue;
        nn::Tensor x = RandomTensor({n, g.cin, lin}, &rng);
        nn::Tensor slow = testing::ReferenceConvForward(&conv, x);
        nn::Tensor fast = conv.ForwardInference(x);
        EXPECT_LT(MaxAbsDiff(slow, fast), 1e-4)
            << "n=" << n << " lin=" << lin << " k=" << g.k
            << " stride=" << g.stride << " dil=" << g.dilation;
      }
    }
  }
}

TEST(Conv1dInferenceTest, StridedResultsAreBatchCompositionInvariant) {
  // Serving coalesces windows from different requests into shared
  // batches; per-sample outputs must be bitwise-independent of what else
  // rides in the batch — now also for strided/dilated geometries.
  Rng rng(19);
  nn::Conv1dOptions opt;
  opt.in_channels = 3;
  opt.out_channels = 6;
  opt.kernel_size = 3;
  opt.stride = 2;
  opt.padding = 2;
  opt.dilation = 2;
  nn::Conv1d conv(opt, &rng);
  const int64_t n = 5, lin = 39;
  nn::Tensor batch = RandomTensor({n, 3, lin}, &rng);
  nn::Tensor batched = conv.ForwardInference(batch);
  for (int64_t i = 0; i < n; ++i) {
    nn::Tensor one({1, 3, lin});
    for (int64_t c = 0; c < 3; ++c) {
      for (int64_t t = 0; t < lin; ++t) one.at3(0, c, t) = batch.at3(i, c, t);
    }
    nn::Tensor single = conv.ForwardInference(one);
    for (int64_t j = 0; j < single.numel(); ++j) {
      EXPECT_EQ(single.at(j), batched.at(i * single.numel() + j))
          << "sample " << i << " flat index " << j;
    }
  }
}

// Drives BatchNorm running statistics away from the identity so the
// fused affine is non-trivial.
void WarmBatchNorm(nn::BatchNorm1d* bn, int64_t channels, Rng* rng) {
  bn->SetTraining(true);
  for (int step = 0; step < 4; ++step) {
    bn->Forward(RandomTensor({5, channels, 12}, rng));
  }
  bn->SetTraining(false);
}

TEST(FusedPoolTest, MaxPoolEpilogueMatchesSeparatePoolBitwise) {
  // Conv+BN+ReLU+MaxPool(2,2) through Sequential::ForwardInference (one
  // fused GEMM-with-pool pass) vs the same fused conv followed by a
  // separate pool layer: identical to the last ULP, for even and odd
  // (remainder-dropping) input lengths.
  Rng rng(23);
  auto seq = std::make_unique<nn::Sequential>();
  nn::Conv1dOptions opt;
  opt.in_channels = 3;
  opt.out_channels = 9;
  opt.kernel_size = 3;
  opt.padding = opt.SamePadding();
  opt.bias = false;
  auto* conv = seq->Add(std::make_unique<nn::Conv1d>(opt, &rng));
  auto* bn = seq->Add(std::make_unique<nn::BatchNorm1d>(9));
  seq->Add(std::make_unique<nn::ReLU>());
  auto* pool = seq->Add(std::make_unique<nn::MaxPool1d>(2, 2));
  WarmBatchNorm(bn, 9, &rng);
  seq->SetTraining(false);
  for (int64_t lin : {40, 37}) {
    nn::Tensor x = RandomTensor({4, 3, lin}, &rng);
    nn::Tensor fused = seq->ForwardInference(x);
    std::vector<float> scale, shift;
    bn->FusedAffine(&scale, &shift);
    nn::Tensor unpooled = conv->ForwardInferenceFused(
        x, scale.data(), shift.data(), /*fuse_relu=*/true);
    nn::Tensor separate = pool->ForwardInference(unpooled);
    ASSERT_TRUE(fused.SameShape(separate)) << "lin=" << lin;
    EXPECT_EQ(MaxAbsDiff(fused, separate), 0.0) << "lin=" << lin;
    // Anchor against the unfused training path too (eval mode).
    EXPECT_LT(MaxAbsDiff(fused, seq->Forward(x)), 1e-4) << "lin=" << lin;
  }
}

TEST(FusedPoolTest, AvgPoolEpilogueMatchesSeparatePoolBitwise) {
  // Conv(bias)+ReLU+AvgPool(w, w) across the tile-dividing windows the
  // fusion admits (odd input length exercises the dropped remainder).
  Rng rng(29);
  for (int64_t pw : {2, 4, 8}) {
    auto seq = std::make_unique<nn::Sequential>();
    nn::Conv1dOptions opt;
    opt.in_channels = 2;
    opt.out_channels = 5;
    opt.kernel_size = 5;
    opt.padding = opt.SamePadding();
    auto* conv = seq->Add(std::make_unique<nn::Conv1d>(opt, &rng));
    seq->Add(std::make_unique<nn::ReLU>());
    auto* pool =
        seq->Add(std::make_unique<nn::AvgPool1d>(pw, pw));
    seq->SetTraining(false);
    nn::Tensor x = RandomTensor({3, 2, 38}, &rng);
    nn::Tensor fused = seq->ForwardInference(x);
    nn::Tensor unpooled = conv->ForwardInferenceFused(
        x, /*channel_scale=*/nullptr, /*channel_shift=*/nullptr,
        /*fuse_relu=*/true);
    nn::Tensor separate = pool->ForwardInference(unpooled);
    ASSERT_TRUE(fused.SameShape(separate)) << "pw=" << pw;
    EXPECT_EQ(MaxAbsDiff(fused, separate), 0.0) << "pw=" << pw;
    EXPECT_LT(MaxAbsDiff(fused, seq->Forward(x)), 1e-4) << "pw=" << pw;
  }
}

TEST(FusedPoolTest, SupportedPoolWindowsDivideEveryTileTier) {
  EXPECT_FALSE(nn::ConvGemmSupportsPool(1));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(2));
  EXPECT_FALSE(nn::ConvGemmSupportsPool(3));  // correct, but not bitwise
  EXPECT_TRUE(nn::ConvGemmSupportsPool(4));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(8));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(16));
  EXPECT_FALSE(nn::ConvGemmSupportsPool(17));
}

TEST(FusedPoolTest, KernelHandlesNonDividingWindowsToRounding) {
  // Pool windows that do not divide the tile width are not offered to
  // the layer fusion (no bitwise guarantee), but the kernel itself must
  // still produce the right values: check a 3-wide average pool against
  // a manual conv-then-pool reference.
  Rng rng(31);
  const int64_t cin = 2, cout = 5, kernel = 5, lpad = 42, pw = 3;
  nn::Tensor w = RandomTensor({cout, cin * kernel}, &rng);
  nn::Tensor xpad = RandomTensor({cin, lpad}, &rng);
  const int64_t lout = lpad - kernel + 1;
  nn::Tensor conv = nn::Tensor::Uninitialized({cout, lout});
  nn::ConvGemmParams p;
  p.cout = cout;
  p.cin = cin;
  p.kernel = kernel;
  p.lpad = lpad;
  p.relu = true;
  nn::ConvGemmEpilogue(w.data(), xpad.data(), conv.data(), p);
  const int64_t lpool = lout / pw;
  nn::Tensor fused = nn::Tensor::Uninitialized({cout, lpool});
  p.pool = nn::ConvPool::kAvg;
  p.pool_size = pw;
  nn::ConvGemmEpilogue(w.data(), xpad.data(), fused.data(), p);
  const float inv = 1.0f / static_cast<float>(pw);
  for (int64_t c = 0; c < cout; ++c) {
    for (int64_t g = 0; g < lpool; ++g) {
      float acc = 0.0f;
      for (int64_t r = 0; r < pw; ++r) acc += conv.at2(c, g * pw + r);
      EXPECT_NEAR(fused.at2(c, g), acc * inv, 1e-5)
          << "row " << c << " group " << g;
    }
  }
}

TEST(Conv1dInferenceTest, NoBiasAndSingleSample) {
  Rng rng(6);
  nn::Conv1dOptions opt;
  opt.in_channels = 2;
  opt.out_channels = 3;
  opt.kernel_size = 5;
  opt.padding = opt.SamePadding();
  opt.bias = false;
  nn::Conv1d conv(opt, &rng);
  nn::Tensor x = RandomTensor({1, 2, 17}, &rng);
  EXPECT_LT(MaxAbsDiff(testing::ReferenceConvForward(&conv, x),
                       conv.ForwardInference(x)),
            1e-5);
}

TEST(BatchNormInferenceTest, EvalModeAgreesWithForward) {
  Rng rng(7);
  nn::BatchNorm1d bn(4);
  // Drive the running statistics away from the identity first.
  bn.SetTraining(true);
  for (int step = 0; step < 5; ++step) {
    bn.Forward(RandomTensor({6, 4, 10}, &rng));
  }
  bn.SetTraining(false);
  nn::Tensor x = RandomTensor({3, 4, 10}, &rng);
  EXPECT_LT(MaxAbsDiff(bn.Forward(x), bn.ForwardInference(x)), 1e-5);
}

TEST(BatchNormInferenceTest, TrainingModeFallsBackToForward) {
  Rng rng(8);
  nn::BatchNorm1d reference(2);
  nn::BatchNorm1d inference(2);
  nn::Tensor x = RandomTensor({4, 2, 8}, &rng);
  reference.SetTraining(true);
  inference.SetTraining(true);
  nn::Tensor a = reference.Forward(x);
  nn::Tensor b = inference.ForwardInference(x);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-6);
  // Running statistics must update on the fallback path too.
  EXPECT_LT(MaxAbsDiff(reference.running_mean(), inference.running_mean()),
            1e-6);
}

TEST(LinearInferenceTest, AgreesWithForward) {
  Rng rng(9);
  nn::Linear linear(6, 3, /*bias=*/true, &rng);
  nn::Tensor x = RandomTensor({5, 6}, &rng);
  EXPECT_LT(MaxAbsDiff(linear.Forward(x), linear.ForwardInference(x)), 1e-6);
}

TEST(ResNetInferenceTest, LogitsAgreeWithTrainingForward) {
  Rng rng(10);
  core::ResNetConfig config;
  config.base_filters = 8;
  config.kernel_size = 7;
  core::ResNetClassifier model(config, &rng);
  model.SetTraining(false);
  nn::Tensor x = RandomTensor({4, 1, 32}, &rng);
  nn::Tensor slow = model.Forward(x);
  nn::Tensor slow_features = model.feature_maps();
  nn::Tensor fast = model.ForwardInference(x);
  EXPECT_LT(MaxAbsDiff(slow, fast), 1e-4);
  // CAM extraction depends on the cached feature maps matching too.
  EXPECT_LT(MaxAbsDiff(slow_features, model.feature_maps()), 1e-4);
}

TEST(ResNetInferenceTest, BatchedMatchesSingleWindowLoop) {
  Rng rng(12);
  core::ResNetConfig config;
  config.base_filters = 8;
  core::ResNetClassifier model(config, &rng);
  model.SetTraining(false);
  const int64_t n = 6, l = 32;
  nn::Tensor batch = RandomTensor({n, 1, l}, &rng);
  nn::Tensor batched = model.ForwardInference(batch);
  for (int64_t i = 0; i < n; ++i) {
    nn::Tensor window({1, 1, l});
    for (int64_t t = 0; t < l; ++t) window.at3(0, 0, t) = batch.at3(i, 0, t);
    nn::Tensor single = model.Forward(window);
    for (int64_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(single.at2(0, c), batched.at2(i, c), 1e-4)
          << "window " << i << " class " << c;
    }
  }
}

TEST(EnsembleInferenceTest, BatchedProbabilityMatchesTrainingPath) {
  Rng rng(13);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9}) {
    core::ResNetConfig config;
    config.base_filters = 4;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  core::CamalEnsemble ensemble =
      core::CamalEnsemble::FromMembers(std::move(members));
  nn::Tensor x = RandomTensor({8, 1, 24}, &rng);
  nn::Tensor reference = ensemble.DetectProbability(x);
  nn::Tensor batched = ensemble.DetectProbabilityBatched(x);
  EXPECT_LT(MaxAbsDiff(reference, batched), 1e-4);
}

// ---------------------------------------------------------------------------
// The conv GEMM's dispatch tiers, called directly: ConvGemmEpilogue runs
// only the widest tier the host supports, so without these an AVX-512 host
// never executes the AVX2 or portable conv kernels.
// ---------------------------------------------------------------------------

using ConvTierFn = void (*)(const float*, const float*, float*,
                            const nn::ConvGemmParams&);

struct ConvTier {
  const char* name;
  ConvTierFn fn;
};

// The tiers this host can run, widest last.
std::vector<ConvTier> AvailableConvTiers() {
  std::vector<ConvTier> tiers = {
      {"generic", nn::internal::ConvGemmEpilogueGeneric}};
  if (nn::internal::HasAvx2Gemm()) {
    tiers.push_back({"avx2", nn::internal::ConvGemmEpilogueAvx2});
  }
  if (nn::internal::HasAvx512Gemm()) {
    tiers.push_back({"avx512", nn::internal::ConvGemmEpilogueAvx512});
  }
  return tiers;
}

// Sample 0 of x (N, C, L) zero-padded by `padding` on both sides: the
// kernels' xpad.
std::vector<float> PadSample(const nn::Tensor& x, int64_t padding) {
  const int64_t cin = x.dim(1), lin = x.dim(2), lpad = lin + 2 * padding;
  std::vector<float> xpad(static_cast<size_t>(cin * lpad), 0.0f);
  for (int64_t ci = 0; ci < cin; ++ci) {
    for (int64_t t = 0; t < lin; ++t) {
      xpad[ci * lpad + padding + t] = x.at3(0, ci, t);
    }
  }
  return xpad;
}

TEST(ConvGemmTierTest, EveryTierMatchesReferenceConv) {
  // The Conv1dInferenceTest geometries plus output-channel counts that
  // leave row remainders after 8- and 4-row bands, each under four
  // epilogues: plain, scale/shift + ReLU, and fused max / average pools.
  Rng rng(37);
  struct Geometry {
    int64_t cin, cout, k, stride, padding, dilation;
  };
  struct Epilogue {
    bool affine, relu;
    nn::ConvPool pool;
    int64_t pool_size;
  };
  const Epilogue epilogues[] = {{false, false, nn::ConvPool::kNone, 1},
                                {true, true, nn::ConvPool::kNone, 1},
                                {true, true, nn::ConvPool::kMax, 2},
                                {false, true, nn::ConvPool::kAvg, 4}};
  const std::vector<ConvTier> tiers = AvailableConvTiers();
  for (const Geometry& g : {Geometry{1, 4, 7, 1, 3, 1},
                            Geometry{3, 8, 5, 1, 2, 1},
                            Geometry{4, 6, 3, 2, 1, 1},
                            Geometry{2, 5, 3, 1, 2, 2},
                            Geometry{8, 16, 1, 1, 0, 1},
                            Geometry{5, 13, 5, 1, 2, 1},
                            Geometry{16, 21, 3, 1, 1, 1},
                            Geometry{32, 32, 5, 1, 2, 1},
                            Geometry{3, 11, 4, 2, 2, 2}}) {
    nn::Conv1dOptions opt;
    opt.in_channels = g.cin;
    opt.out_channels = g.cout;
    opt.kernel_size = g.k;
    opt.stride = g.stride;
    opt.padding = g.padding;
    opt.dilation = g.dilation;
    opt.bias = false;
    nn::Conv1d conv(opt, &rng);
    std::vector<float> scale(static_cast<size_t>(g.cout));
    std::vector<float> shift(static_cast<size_t>(g.cout));
    for (int64_t c = 0; c < g.cout; ++c) {
      scale[c] = static_cast<float>(rng.Uniform(0.5, 1.5));
      shift[c] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    for (int64_t lin : {40, 37, 128}) {
      nn::Tensor x = RandomTensor({1, g.cin, lin}, &rng);
      const nn::Tensor ref = testing::ReferenceConvForward(&conv, x);
      const int64_t lout = ref.dim(2);
      const std::vector<float> xpad = PadSample(x, g.padding);
      for (const Epilogue& e : epilogues) {
        nn::ConvGemmParams p;
        p.cout = g.cout;
        p.cin = g.cin;
        p.kernel = g.k;
        p.lpad = lin + 2 * g.padding;
        p.stride = g.stride;
        p.dilation = g.dilation;
        p.pool = e.pool;
        p.pool_size = e.pool_size;
        p.row_scale = e.affine ? scale.data() : nullptr;
        p.row_shift = e.affine ? shift.data() : nullptr;
        p.relu = e.relu;
        ASSERT_EQ(nn::ConvGemmOutputLength(p), lout);
        // Reference epilogue and pool on the direct-loop conv.
        const int64_t pw = e.pool_size;
        const int64_t lpool = lout / pw;
        std::vector<float> want(static_cast<size_t>(g.cout * lpool));
        for (int64_t c = 0; c < g.cout; ++c) {
          for (int64_t o = 0; o < lpool; ++o) {
            float best = -std::numeric_limits<float>::infinity();
            float sum = 0.0f;
            for (int64_t r = 0; r < pw; ++r) {
              float v = ref.at3(0, c, o * pw + r);
              if (e.affine) v = scale[c] * v + shift[c];
              if (e.relu && v < 0.0f) v = 0.0f;
              best = std::max(best, v);
              sum += v;
            }
            want[c * lpool + o] =
                e.pool == nn::ConvPool::kMax ? best : sum / pw;
          }
        }
        for (const ConvTier& tier : tiers) {
          std::vector<float> got(want.size(), -1.0f);
          tier.fn(conv.weight().value.data(), xpad.data(), got.data(), p);
          double max_diff = 0.0;
          for (size_t i = 0; i < want.size(); ++i) {
            max_diff = std::max(
                max_diff, std::abs(static_cast<double>(got[i]) - want[i]));
          }
          EXPECT_LT(max_diff, 1e-4)
              << tier.name << " cin=" << g.cin << " cout=" << g.cout
              << " k=" << g.k << " stride=" << g.stride
              << " dil=" << g.dilation << " lin=" << lin
              << " pool=" << static_cast<int>(e.pool) << " relu=" << e.relu;
        }
      }
    }
  }

  // Exact edge values: weights in {-1, 0, 1} times inputs in {0, +-Inf,
  // small integers} make every product and sum exact, so the expected
  // outputs follow from plain scalar arithmetic — +-Inf, NaN (Inf - Inf,
  // 0 * Inf), and -0.0 from a negative scale times a zero sum plus a -0.0
  // shift — and the fused ReLU must give them bitwise as `v < 0 ? 0 : v`.
  // 13 rows (every weight pair, then repeats) x 40 columns cover the 8-,
  // 4- and 1-row bands and full plus partial column tiles on every tier.
  const float inf = std::numeric_limits<float>::infinity();
  const int64_t cin = 2, cout = 13, kernel = 1, lpad = 40;
  const int64_t lout = lpad;
  std::vector<float> w(static_cast<size_t>(cout * cin));
  for (int64_t c = 0; c < cout; ++c) {
    w[c * cin] = static_cast<float>(c % 3 - 1);
    w[c * cin + 1] = static_cast<float>(c / 3 % 3 - 1);
  }
  std::vector<float> xpad(static_cast<size_t>(cin * lpad));
  for (int64_t j = 0; j < lpad; ++j) {
    float x0 = 0.0f, x1 = 0.0f;  // j % 4 == 0: a zero sum
    if (j % 4 == 1) {
      x0 = inf;
      x1 = 3.0f;
    } else if (j % 4 == 2) {
      x0 = inf;
      x1 = -inf;
    } else if (j % 4 == 3) {
      x0 = static_cast<float>(j % 7 - 3);
      x1 = 2.0f;
    }
    xpad[j] = x0;
    xpad[lpad + j] = x1;
  }
  std::vector<float> scale(cout), shift(cout);
  for (int64_t c = 0; c < cout; ++c) {
    scale[c] = c % 2 == 0 ? 1.0f : -2.0f;
    shift[c] = c % 4 < 2 ? -0.0f : 0.5f;
  }
  std::vector<float> want(static_cast<size_t>(cout * lout));
  bool saw_nan = false, saw_neg_zero = false, saw_inf = false;
  for (int64_t c = 0; c < cout; ++c) {
    for (int64_t j = 0; j < lout; ++j) {
      float acc = 0.0f;
      for (int64_t ci = 0; ci < cin; ++ci) {
        for (int64_t kk = 0; kk < kernel; ++kk) {
          acc += w[(c * cin + ci) * kernel + kk] * xpad[ci * lpad + j + kk];
        }
      }
      float v = scale[c] * acc + shift[c];
      v = v < 0.0f ? 0.0f : v;
      saw_nan |= std::isnan(v);
      saw_inf |= std::isinf(v);
      saw_neg_zero |= v == 0.0f && std::signbit(v);
      want[c * lout + j] = v;
    }
  }
  ASSERT_TRUE(saw_nan && saw_inf && saw_neg_zero);
  nn::ConvGemmParams p;
  p.cout = cout;
  p.cin = cin;
  p.kernel = kernel;
  p.lpad = lpad;
  p.row_scale = scale.data();
  p.row_shift = shift.data();
  p.relu = true;
  for (const ConvTier& tier : tiers) {
    std::vector<float> got(want.size(), 7.0f);
    tier.fn(w.data(), xpad.data(), got.data(), p);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
          << tier.name << " row " << i / lout << " col " << i % lout
          << ": got " << got[i] << " want " << want[i];
    }
  }
  if (!nn::internal::HasAvx2Gemm() || !nn::internal::HasAvx512Gemm()) {
    GTEST_SKIP() << "checked " << tiers.size()
                 << " tier(s); the host lacks AVX2 or AVX-512";
  }
}

TEST(ConvGemmTierTest, PartialTilesMatchFullTilesBitwise) {
  // Per output scalar the stride-1 kernels run one FMA chain whatever the
  // tile holding its column, so shortening the output (which moves
  // columns from full tiles into a partial tail tile) must leave every
  // shared column bitwise unchanged. Stride > 1 SIMD tiles are not
  // covered: they run the portable template, whose partial tiles may
  // contract differently from its full ones.
  Rng rng(41);
  const std::vector<ConvTier> tiers = AvailableConvTiers();
  for (int64_t cin : {1, 3, 16}) {
    for (int64_t cout : {1, 5, 13, 32}) {
      for (int64_t kernel : {1, 3, 5}) {
        for (int64_t dil : {1, 2}) {
          for (int64_t lout : {128, 77, 40, 33}) {
            const bool relu = (cin + cout + kernel) % 2 == 0;
            const int64_t span = dil * (kernel - 1) + 1;
            const int64_t lpad = lout - 1 + span;
            nn::Tensor w = RandomTensor({cout, cin * kernel}, &rng);
            nn::Tensor xpad = RandomTensor({cin, lpad}, &rng);
            std::vector<float> scale(static_cast<size_t>(cout));
            std::vector<float> shift(static_cast<size_t>(cout));
            for (int64_t c = 0; c < cout; ++c) {
              scale[c] = static_cast<float>(rng.Uniform(0.5, 1.5));
              shift[c] = static_cast<float>(rng.Uniform(-0.5, 0.5));
            }
            nn::ConvGemmParams p;
            p.cout = cout;
            p.cin = cin;
            p.kernel = kernel;
            p.lpad = lpad;
            p.dilation = dil;
            p.row_scale = scale.data();
            p.row_shift = shift.data();
            p.relu = relu;
            for (const ConvTier& tier : tiers) {
              std::vector<float> full(static_cast<size_t>(cout * lout));
              tier.fn(w.data(), xpad.data(), full.data(), p);
              for (int64_t d : {1, 5, 17}) {
                const int64_t lshort = lout - d;
                nn::ConvGemmParams q = p;
                q.lpad = lpad - d;
                std::vector<float> xshort(static_cast<size_t>(cin * q.lpad));
                for (int64_t ci = 0; ci < cin; ++ci) {
                  std::memcpy(&xshort[ci * q.lpad], xpad.data() + ci * lpad,
                              sizeof(float) * q.lpad);
                }
                std::vector<float> part(static_cast<size_t>(cout * lshort));
                tier.fn(w.data(), xshort.data(), part.data(), q);
                for (int64_t c = 0; c < cout; ++c) {
                  EXPECT_EQ(std::memcmp(&full[c * lout], &part[c * lshort],
                                        sizeof(float) * lshort),
                            0)
                      << tier.name << " cin=" << cin << " cout=" << cout
                      << " k=" << kernel << " dil=" << dil
                      << " lout=" << lout << " d=" << d << " row " << c;
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace camal
