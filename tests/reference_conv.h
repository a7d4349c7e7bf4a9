#ifndef CAMAL_TESTS_REFERENCE_CONV_H_
#define CAMAL_TESTS_REFERENCE_CONV_H_

// Direct-loop 1-D convolution, forward and both gradients: an oracle for
// nn::Conv1d that shares no code with the GEMM kernels it runs on. Each
// loop walks the valid output positions of one (row, tap) pair, the
// textbook definition
//   y[n, co, t] = b[co] + sum_{ci, kk} w[co, ci, kk] *
//                 x[n, ci, t * stride + kk * dilation - padding].

#include <algorithm>
#include <cstdint>

#include "nn/conv1d.h"
#include "nn/tensor.h"

namespace camal::testing {

// Output positions [*t0, *t1) whose tap at input offset `in_off` lands
// inside an input of length lin.
inline void ReferenceValidRange(int64_t in_off, int64_t lin, int64_t lout,
                                int64_t stride, int64_t* t0, int64_t* t1) {
  *t0 = in_off < 0 ? (-in_off + stride - 1) / stride : 0;
  *t1 = in_off < lin
            ? std::min<int64_t>(lout, (lin - 1 - in_off) / stride + 1)
            : 0;
}

/// Forward of \p conv (its weight, bias and geometry) on x (N, C_in, L).
inline nn::Tensor ReferenceConvForward(nn::Conv1d* conv, const nn::Tensor& x) {
  const nn::Conv1dOptions& opt = conv->options();
  const nn::Tensor& weight = conv->weight().value;
  const int64_t n = x.dim(0), cin = opt.in_channels, lin = x.dim(2);
  const int64_t cout = opt.out_channels, k = opt.kernel_size;
  const int64_t lout = conv->OutputLength(lin);
  nn::Tensor y({n, cout, lout});
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t co = 0; co < cout; ++co) {
      float* out_row = y.data() + (ni * cout + co) * lout;
      if (opt.bias) {
        std::fill(out_row, out_row + lout, conv->bias_param().value.at(co));
      }
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* in_row = x.data() + (ni * cin + ci) * lin;
        const float* w_row = weight.data() + (co * cin + ci) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t in_off = kk * opt.dilation - opt.padding;
          int64_t t0 = 0, t1 = 0;
          ReferenceValidRange(in_off, lin, lout, opt.stride, &t0, &t1);
          for (int64_t t = t0; t < t1; ++t) {
            out_row[t] += w_row[kk] * in_row[t * opt.stride + in_off];
          }
        }
      }
    }
  }
  return y;
}

/// Weight gradient (C_out, C_in, K) of sum(grad_output * conv(x)).
inline nn::Tensor ReferenceConvWeightGrad(const nn::Tensor& x,
                                          const nn::Tensor& grad_output,
                                          const nn::Conv1dOptions& opt) {
  const int64_t n = x.dim(0), cin = opt.in_channels, lin = x.dim(2);
  const int64_t cout = opt.out_channels, k = opt.kernel_size;
  const int64_t lout = grad_output.dim(2);
  nn::Tensor dw({cout, cin, k});
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t ni = 0; ni < n; ++ni) {
      const float* go_row = grad_output.data() + (ni * cout + co) * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* in_row = x.data() + (ni * cin + ci) * lin;
        float* dw_row = dw.data() + (co * cin + ci) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t in_off = kk * opt.dilation - opt.padding;
          int64_t t0 = 0, t1 = 0;
          ReferenceValidRange(in_off, lin, lout, opt.stride, &t0, &t1);
          float acc = 0.0f;
          for (int64_t t = t0; t < t1; ++t) {
            acc += go_row[t] * in_row[t * opt.stride + in_off];
          }
          dw_row[kk] += acc;
        }
      }
    }
  }
  return dw;
}

/// Bias gradient (C_out): grad_output summed over samples and positions.
inline nn::Tensor ReferenceConvBiasGrad(const nn::Tensor& grad_output) {
  const int64_t n = grad_output.dim(0), cout = grad_output.dim(1),
                lout = grad_output.dim(2);
  nn::Tensor db({cout});
  for (int64_t co = 0; co < cout; ++co) {
    double acc = 0.0;
    for (int64_t ni = 0; ni < n; ++ni) {
      for (int64_t t = 0; t < lout; ++t) acc += grad_output.at3(ni, co, t);
    }
    db.at(co) = static_cast<float>(acc);
  }
  return db;
}

/// Input gradient (N, C_in, lin) of sum(grad_output * conv(x)).
inline nn::Tensor ReferenceConvInputGrad(const nn::Tensor& grad_output,
                                         const nn::Tensor& weight,
                                         const nn::Conv1dOptions& opt,
                                         int64_t lin) {
  const int64_t n = grad_output.dim(0), cin = opt.in_channels;
  const int64_t cout = opt.out_channels, k = opt.kernel_size;
  const int64_t lout = grad_output.dim(2);
  nn::Tensor dx({n, cin, lin});
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      float* gi_row = dx.data() + (ni * cin + ci) * lin;
      for (int64_t co = 0; co < cout; ++co) {
        const float* go_row = grad_output.data() + (ni * cout + co) * lout;
        const float* w_row = weight.data() + (co * cin + ci) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t in_off = kk * opt.dilation - opt.padding;
          int64_t t0 = 0, t1 = 0;
          ReferenceValidRange(in_off, lin, lout, opt.stride, &t0, &t1);
          for (int64_t t = t0; t < t1; ++t) {
            gi_row[t * opt.stride + in_off] += w_row[kk] * go_row[t];
          }
        }
      }
    }
  }
  return dx;
}

}  // namespace camal::testing

#endif  // CAMAL_TESTS_REFERENCE_CONV_H_
