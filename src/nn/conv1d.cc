#include "nn/conv1d.h"

#include <algorithm>
#include <vector>

#include "common/parallel_for.h"
#include "nn/gemm.h"
#include "nn/init.h"

namespace camal::nn {
namespace {

// Samples whose weight-gradient partials Backward holds at once. The
// partials fold into the gradient in sample order, so this bounds the
// scratch (kBackwardBlock x cout x cin * k floats) without changing a bit
// of the result.
constexpr int64_t kBackwardBlock = 8;

// Sample (cin, lin) with `pad` zero columns on each side: the sample itself
// when pad == 0, else its copy into the interior of *xpad (cin, lin + 2 *
// pad), whose pad columns the caller zeroed.
const float* PadSample(const float* sample, int64_t cin, int64_t lin,
                       int64_t pad, AlignedBuffer* xpad) {
  if (pad == 0) return sample;
  const int64_t lpad = lin + 2 * pad;
  for (int64_t ci = 0; ci < cin; ++ci) {
    std::copy(sample + ci * lin, sample + (ci + 1) * lin,
              xpad->data() + ci * lpad + pad);
  }
  return xpad->data();
}

}  // namespace

Conv1d::Conv1d(const Conv1dOptions& options, Rng* rng) : options_(options) {
  CAMAL_CHECK_GT(options_.in_channels, 0);
  CAMAL_CHECK_GT(options_.out_channels, 0);
  CAMAL_CHECK_GT(options_.kernel_size, 0);
  CAMAL_CHECK_GT(options_.stride, 0);
  CAMAL_CHECK_GE(options_.padding, 0);
  CAMAL_CHECK_GT(options_.dilation, 0);
  weight_.name = "conv.weight";
  weight_.value = Tensor(
      {options_.out_channels, options_.in_channels, options_.kernel_size});
  weight_.grad = Tensor(weight_.value.shape());
  KaimingUniform(&weight_.value,
                 options_.in_channels * options_.kernel_size, rng);
  if (options_.bias) {
    bias_.name = "conv.bias";
    bias_.value = Tensor({options_.out_channels});
    bias_.grad = Tensor({options_.out_channels});
    KaimingUniform(&bias_.value, options_.in_channels * options_.kernel_size,
                   rng);
  }
}

int64_t Conv1d::OutputLength(int64_t input_length) const {
  const int64_t effective_k =
      options_.dilation * (options_.kernel_size - 1) + 1;
  return (input_length + 2 * options_.padding - effective_k) /
             options_.stride + 1;
}

Tensor Conv1d::Forward(const Tensor& x) {
  input_ = x;
  return ForwardInference(x);
}

Tensor Conv1d::RunBatched(const Tensor& x, const float* row_scale,
                          const float* row_shift, bool fuse_relu,
                          ConvPool pool, int64_t pool_size) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK_EQ(x.dim(1), options_.in_channels);
  const int64_t n = x.dim(0), cin = options_.in_channels, lin = x.dim(2);
  const int64_t cout = options_.out_channels, k = options_.kernel_size;
  const int64_t lout = OutputLength(lin);
  CAMAL_CHECK_GT(lout, 0);
  const int64_t pw = pool == ConvPool::kNone ? 1 : pool_size;
  if (pool != ConvPool::kNone) CAMAL_CHECK(ConvGemmSupportsPool(pw));
  const int64_t lpool = lout / pw;
  CAMAL_CHECK_GT(lpool, 0);
  Tensor y = Tensor::Uninitialized({n, cout, lpool});
  const int64_t pad = options_.padding;
  const int64_t lpad = lin + 2 * pad;
  const float* w = weight_.value.data();  // (cout, cin * k) row-major

  ConvGemmParams params;
  params.cout = cout;
  params.cin = cin;
  params.kernel = k;
  params.lpad = lpad;
  params.stride = options_.stride;
  params.dilation = options_.dilation;
  params.pool = pool;
  params.pool_size = pw;
  params.row_scale = row_scale;
  params.row_shift = row_shift;
  params.relu = fuse_relu;

  // Implicit im2col for every geometry: the conv GEMM samples the padded
  // input at stride/dilation offsets directly, so only an L1-sized
  // zero-padded copy of each sample is materialized — never the
  // (cin * k) x L_out column matrix.
  ParallelForChunked(0, n, [&](int64_t n_begin, int64_t n_end) {
    thread_local AlignedBuffer xpad;
    if (pad != 0) xpad.assign(static_cast<size_t>(cin * lpad), 0.0f);
    for (int64_t ni = n_begin; ni < n_end; ++ni) {
      const float* sample_pad =
          PadSample(x.data() + ni * cin * lin, cin, lin, pad, &xpad);
      ConvGemmEpilogue(w, sample_pad, y.data() + ni * cout * lpool, params);
    }
  });
  return y;
}

Tensor Conv1d::ForwardInference(const Tensor& x) {
  return RunBatched(x, /*row_scale=*/nullptr,
                    options_.bias ? bias_.value.data() : nullptr,
                    /*fuse_relu=*/false);
}

Tensor Conv1d::ForwardInferenceFused(const Tensor& x,
                                     const float* channel_scale,
                                     const float* channel_shift,
                                     bool fuse_relu, ConvPool pool,
                                     int64_t pool_size) {
  if (!options_.bias) {
    return RunBatched(x, channel_scale, channel_shift, fuse_relu, pool,
                      pool_size);
  }
  // Fold the conv bias into the shift: s * (conv + bias) + t.
  std::vector<float> shift(static_cast<size_t>(options_.out_channels));
  for (int64_t co = 0; co < options_.out_channels; ++co) {
    const float s = channel_scale != nullptr ? channel_scale[co] : 1.0f;
    const float t = channel_shift != nullptr ? channel_shift[co] : 0.0f;
    shift[static_cast<size_t>(co)] = s * bias_.value.at(co) + t;
  }
  return RunBatched(x, channel_scale, shift.data(), fuse_relu, pool,
                    pool_size);
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  CAMAL_CHECK_EQ(grad_output.ndim(), 3);
  const int64_t n = input_.dim(0), cin = options_.in_channels,
                lin = input_.dim(2);
  const int64_t cout = options_.out_channels, k = options_.kernel_size;
  const int64_t lout = OutputLength(lin);
  CAMAL_CHECK_EQ(grad_output.dim(0), n);
  CAMAL_CHECK_EQ(grad_output.dim(1), cout);
  CAMAL_CHECK_EQ(grad_output.dim(2), lout);
  const int64_t stride = options_.stride, pad = options_.padding,
                dil = options_.dilation;
  const int64_t lpad = lin + 2 * pad;
  const int64_t kdim = cin * k;  // im2col rows, in (ci, kk) order
  const int64_t wsize = cout * kdim;

  // Bias gradient: one double sum per channel over (sample, position).
  if (options_.bias) {
    ParallelFor(0, cout, [&](int64_t co) {
      double acc = 0.0;
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* go_row = grad_output.data() + (ni * cout + co) * lout;
        for (int64_t t = 0; t < lout; ++t) acc += go_row[t];
      }
      bias_.grad.at(co) += static_cast<float>(acc);
    });
  }

  // Caller-thread scratch, shared with the workers through the pointers
  // (a thread_local named inside the loop bodies would be the worker's).
  // W^T (cin * k, cout) is the A operand of the column-gradient product.
  thread_local AlignedBuffer w_t_scratch, partial_scratch;
  w_t_scratch.resize(static_cast<size_t>(wsize));
  float* w_t = w_t_scratch.data();
  const float* w = weight_.value.data();
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t p = 0; p < kdim; ++p) w_t[p * cout + co] = w[co * kdim + p];
  }
  const int64_t block = std::min(n, kBackwardBlock);
  partial_scratch.resize(static_cast<size_t>(block * wsize));
  float* partials = partial_scratch.data();  // block x (cout, cin * k)
  Tensor grad_input = Tensor::Uninitialized({n, cin, lin});
  float* wg = weight_.grad.data();
  for (int64_t b0 = 0; b0 < n; b0 += block) {
    const int64_t b1 = std::min(n, b0 + block);
    ParallelForChunked(b0, b1, [&](int64_t s_begin, int64_t s_end) {
      thread_local AlignedBuffer xpad, cols, gpad;
      if (pad != 0) xpad.assign(static_cast<size_t>(cin * lpad), 0.0f);
      cols.resize(static_cast<size_t>(lout * kdim));
      gpad.resize(static_cast<size_t>(cin * lpad));
      for (int64_t ni = s_begin; ni < s_end; ++ni) {
        const float* xs =
            PadSample(input_.data() + ni * cin * lin, cin, lin, pad, &xpad);
        const float* go = grad_output.data() + ni * cout * lout;
        // col^T (lout, cin * k): row t holds the inputs output column t
        // reads. Weight-gradient partial go * col^T (cout, cin * k).
        for (int64_t t = 0; t < lout; ++t) {
          float* row = cols.data() + t * kdim;
          for (int64_t ci = 0; ci < cin; ++ci) {
            const float* src = xs + ci * lpad + t * stride;
            for (int64_t kk = 0; kk < k; ++kk) row[ci * k + kk] = src[kk * dil];
          }
        }
        GemmEpilogue(go, cols.data(), partials + (ni - b0) * wsize,
                     cout, lout, kdim, nullptr, nullptr, /*relu=*/false);
        // Column gradient W^T * go (cin * k, lout), scattered back onto the
        // padded positions each column read (col2im); the pad is dropped.
        GemmEpilogue(w_t, go, cols.data(), kdim, cout, lout, nullptr,
                     nullptr, /*relu=*/false);
        std::fill(gpad.begin(), gpad.end(), 0.0f);
        for (int64_t ci = 0; ci < cin; ++ci) {
          for (int64_t kk = 0; kk < k; ++kk) {
            const float* src = cols.data() + (ci * k + kk) * lout;
            float* dst = gpad.data() + ci * lpad + kk * dil;
            for (int64_t t = 0; t < lout; ++t) dst[t * stride] += src[t];
          }
        }
        float* gi = grad_input.data() + ni * cin * lin;
        for (int64_t ci = 0; ci < cin; ++ci) {
          const float* src = gpad.data() + ci * lpad + pad;
          std::copy(src, src + lin, gi + ci * lin);
        }
      }
    });
    // Fold the block's partials into dW in sample order: each element
    // adds the same partials in the same order however the loop is cut.
    ParallelForChunked(0, wsize, [&](int64_t e_begin, int64_t e_end) {
      for (int64_t s = 0; s < b1 - b0; ++s) {
        const float* part = partials + s * wsize;
        for (int64_t e = e_begin; e < e_end; ++e) wg[e] += part[e];
      }
    });
  }
  return grad_input;
}

void Conv1d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (options_.bias) out->push_back(&bias_);
}

}  // namespace camal::nn
