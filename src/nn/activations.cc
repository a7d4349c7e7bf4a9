#include "nn/activations.h"

#include <cmath>

namespace camal::nn {

float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

Tensor ReLU::Forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  return y;
}

Tensor ReLU::ForwardInference(const Tensor& x) {
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  CAMAL_CHECK(grad_output.SameShape(input_));
  Tensor g = grad_output;
  float* d = g.data();
  const float* in = input_.data();
  // A select, not a conditional store, so the loop vectorizes: a NaN input
  // keeps its gradient (NaN <= 0 is false) and -0.0 zeroes it.
  for (int64_t i = 0; i < g.numel(); ++i) d[i] = in[i] <= 0.0f ? 0.0f : d[i];
  return g;
}

Tensor Sigmoid::Forward(const Tensor& x) {
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) d[i] = SigmoidScalar(d[i]);
  output_ = y;
  return y;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  CAMAL_CHECK(grad_output.SameShape(output_));
  Tensor g = grad_output;
  float* d = g.data();
  const float* s = output_.data();
  for (int64_t i = 0; i < g.numel(); ++i) d[i] *= s[i] * (1.0f - s[i]);
  return g;
}

Tensor Tanh::Forward(const Tensor& x) {
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) d[i] = std::tanh(d[i]);
  output_ = y;
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  CAMAL_CHECK(grad_output.SameShape(output_));
  Tensor g = grad_output;
  float* d = g.data();
  const float* t = output_.data();
  for (int64_t i = 0; i < g.numel(); ++i) d[i] *= 1.0f - t[i] * t[i];
  return g;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
}  // namespace

Tensor Gelu::Forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) {
    const float v = d[i];
    d[i] = 0.5f * v * (1.0f + std::tanh(kGeluC * (v + kGeluA * v * v * v)));
  }
  return y;
}

Tensor Gelu::Backward(const Tensor& grad_output) {
  CAMAL_CHECK(grad_output.SameShape(input_));
  Tensor g = grad_output;
  float* d = g.data();
  const float* in = input_.data();
  for (int64_t i = 0; i < g.numel(); ++i) {
    const float v = in[i];
    const float u = kGeluC * (v + kGeluA * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    d[i] *= 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
  }
  return g;
}

}  // namespace camal::nn
