// AVX-512 instance of the GEMM tile kernels (see gemm_avx2.cc for the
// dispatch scheme); stride-1 convolutions run on the register-resident
// ConvSimdKernel over the zmm ops below.

#include "nn/gemm.h"

#include <utility>

#if defined(CAMAL_GEMM_HAVE_AVX512)
#include <immintrin.h>
#endif

namespace camal::nn {
namespace internal {

#if defined(CAMAL_GEMM_HAVE_AVX512)

#define CAMAL_GEMM_IMPL GemmEpilogueAvx512
#define CAMAL_GEMM_TILE_NR 32  // conv tiles are 32 columns: two zmm per row
#include "nn/gemm_tile.inc"
#undef CAMAL_GEMM_TILE_NR
#undef CAMAL_GEMM_IMPL

namespace {

// The AVX-512 vector ops of ConvSimdKernel: 16-lane zmm, 8-row tiles
// (16 accumulators of the 32 zmm registers).
struct Avx512Ops {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kRows = 8;

  // Lanes [0, n); n may lie outside [0, 16].
  static Mask FirstLanes(int n) {
    if (n >= kLanes) return 0xFFFF;
    return n > 0 ? static_cast<Mask>((1u << n) - 1u) : 0;
  }
  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Broadcast(float x) { return _mm512_set1_ps(x); }
  static Vec Load(const float* src) { return _mm512_loadu_ps(src); }
  static Vec MaskedLoad(const float* src, Mask m) {
    return _mm512_maskz_loadu_ps(m, src);
  }
  static void Store(float* dst, Vec v) { _mm512_storeu_ps(dst, v); }
  static void MaskedStore(float* dst, Mask m, Vec v) {
    _mm512_mask_storeu_ps(dst, m, v);
  }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
  // v < 0 ? 0 : v as an ordered compare and masked move (GCC 12's
  // _mm512_max_ps trips -Wmaybe-uninitialized in its own header).
  static Vec Relu(Vec v) {
    const Vec zero = _mm512_setzero_ps();
    const Mask negative = _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ);
    return _mm512_mask_mov_ps(v, negative, zero);
  }
};

}  // namespace

void ConvGemmEpilogueAvx512(const float* w, const float* xpad, float* y,
                            const ConvGemmParams& p) {
  if (p.stride == 1) {
    ConvGemmTiles<ConvSimdKernel<Avx512Ops>>(w, xpad, y, p);
  } else {
    ConvGemmTiles<ConvTemplateKernel>(w, xpad, y, p);
  }
}

#else  // fallback so the symbol always links

void GemmEpilogueAvx512(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, const float* row_scale,
                        const float* row_shift, bool relu) {
  GemmEpilogueGeneric(a, b, c, m, k, n, row_scale, row_shift, relu);
}

void ConvGemmEpilogueAvx512(const float* w, const float* xpad, float* y,
                            const ConvGemmParams& p) {
  ConvGemmEpilogueGeneric(w, xpad, y, p);
}

#endif

}  // namespace internal
}  // namespace camal::nn
