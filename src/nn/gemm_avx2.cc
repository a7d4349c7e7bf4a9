// AVX2+FMA instance of the GEMM tile kernels; stride-1 convolutions run on
// the register-resident ConvSimdKernel over the ymm ops below. CMake
// compiles this one translation unit with -mavx2 -mfma on x86-64 (and
// defines CAMAL_GEMM_HAVE_AVX2 project-wide); GemmEpilogue /
// ConvGemmEpilogue only dispatch here after __builtin_cpu_supports
// confirms the host CPU, so the rest of the library stays
// baseline-portable.

#include "nn/gemm.h"

#include <utility>

#if defined(CAMAL_GEMM_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace camal::nn {
namespace internal {

#if defined(CAMAL_GEMM_HAVE_AVX2)

#define CAMAL_GEMM_IMPL GemmEpilogueAvx2
#include "nn/gemm_tile.inc"
#undef CAMAL_GEMM_IMPL

namespace {

// The AVX2 vector ops of ConvSimdKernel: 8-lane ymm, 4-row tiles
// (8 accumulators of the 16 ymm registers).
struct Avx2Ops {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int kLanes = 8;
  static constexpr int kRows = 4;

  // Lanes [0, n); n may lie outside [0, 8].
  static Mask FirstLanes(int n) {
    const Mask lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
  }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Broadcast(float x) { return _mm256_set1_ps(x); }
  static Vec Load(const float* src) { return _mm256_loadu_ps(src); }
  static Vec MaskedLoad(const float* src, Mask m) {
    return _mm256_maskload_ps(src, m);
  }
  static void Store(float* dst, Vec v) { _mm256_storeu_ps(dst, v); }
  static void MaskedStore(float* dst, Mask m, Vec v) {
    _mm256_maskstore_ps(dst, m, v);
  }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  // v < 0 ? 0 : v as an ordered compare and blend.
  static Vec Relu(Vec v) {
    const Vec zero = _mm256_setzero_ps();
    return _mm256_blendv_ps(v, zero, _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
  }
};

}  // namespace

void ConvGemmEpilogueAvx2(const float* w, const float* xpad, float* y,
                          const ConvGemmParams& p) {
  if (p.stride == 1) {
    ConvGemmTiles<ConvSimdKernel<Avx2Ops>>(w, xpad, y, p);
  } else {
    ConvGemmTiles<ConvTemplateKernel>(w, xpad, y, p);
  }
}

#else  // fallback so the symbol always links

void GemmEpilogueAvx2(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, const float* row_scale,
                      const float* row_shift, bool relu) {
  GemmEpilogueGeneric(a, b, c, m, k, n, row_scale, row_shift, relu);
}

void ConvGemmEpilogueAvx2(const float* w, const float* xpad, float* y,
                          const ConvGemmParams& p) {
  ConvGemmEpilogueGeneric(w, xpad, y, p);
}

#endif

}  // namespace internal
}  // namespace camal::nn
