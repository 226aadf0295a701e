// AVX2/FMA instantiation of the kernel templates plus the hand-written
// GEMM micro-kernel, 2x2 max-pool and int8 kernels. This TU — and only this
// TU — is compiled with -mavx2 -mfma (src/simd/CMakeLists.txt); nothing here
// may be called before dispatch has confirmed the CPU capability.
#include "simd/kernels.hpp"

#include <immintrin.h>

#include <cfloat>

#include "simd/kernels_impl.hpp"
#include "simd/vec_avx2.hpp"

namespace dronet::simd {
namespace {

/// One C tile of MR (<= 4) rows by 16 columns with FMA accumulators: 2*MR
/// ymm accumulators (MR rows x 2 halves), one B-row load pair amortized over
/// MR broadcast A values — the vector mirror of tensor/gemm.cpp's
/// micro_full/micro_edge. kMaskCols tiles (nr < 16) load B and load/store C
/// through the lane masks m0/m1, so no column past the tile is touched; their
/// masked-off lanes accumulate zeros that are never stored. Each element the
/// tile covers gets the same operation sequence whatever its tile shape.
template <int MR, bool kMaskCols>
void gemm_tile_fma(const float* ap, const float* b, std::int64_t b_stride, int k,
                   float alpha, float beta, float* c, std::int64_t ldc, __m256i m0,
                   __m256i m1) {
    __m256 acc[MR][2];
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_ps();
    for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::int64_t>(kk) * b_stride;
        const __m256 b0 = kMaskCols ? _mm256_maskload_ps(brow, m0) : _mm256_loadu_ps(brow);
        const __m256 b1 =
            kMaskCols ? _mm256_maskload_ps(brow + 8, m1) : _mm256_loadu_ps(brow + 8);
#pragma GCC unroll 4
        for (int r = 0; r < MR; ++r) {
            const __m256 a = _mm256_broadcast_ss(ap + r);
            acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
        }
        ap += 4;
    }
    const __m256 va = _mm256_set1_ps(alpha);
    const __m256 vb = _mm256_set1_ps(beta);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
        float* crow = c + static_cast<std::int64_t>(r) * ldc;
        for (int h = 0; h < 2; ++h) {
            float* cp = crow + 8 * h;
            const __m256i mask = h == 0 ? m0 : m1;
            // alpha*acc + beta*c, beta multiplying whatever C holds — the
            // same expression the scalar write_tile evaluates.
            const __m256 cv = kMaskCols ? _mm256_maskload_ps(cp, mask) : _mm256_loadu_ps(cp);
            const __m256 v =
                _mm256_add_ps(_mm256_mul_ps(va, acc[r][h]), _mm256_mul_ps(vb, cv));
            if (kMaskCols) {
                _mm256_maskstore_ps(cp, mask, v);
            } else {
                _mm256_storeu_ps(cp, v);
            }
        }
    }
}

template <int MR>
void gemm_rows_fma(const float* ap, const float* b, std::int64_t b_stride, int k,
                   float alpha, float beta, float* c, std::int64_t ldc, int nr) {
    if (nr == 16) {
        const __m256i all = _mm256_set1_epi32(-1);
        gemm_tile_fma<MR, false>(ap, b, b_stride, k, alpha, beta, c, ldc, all, all);
        return;
    }
    // Lane i of the mask pair is live when i < nr.
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr), lane);
    const __m256i m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr - 8), lane);
    gemm_tile_fma<MR, true>(ap, b, b_stride, k, alpha, beta, c, ldc, m0, m1);
}

void gemm_micro_4x16_fma(const float* ap, const float* b, std::int64_t b_stride,
                         int k, float alpha, float beta, float* c,
                         std::int64_t ldc, int mr, int nr) {
    switch (mr) {
        case 4: gemm_rows_fma<4>(ap, b, b_stride, k, alpha, beta, c, ldc, nr); break;
        case 3: gemm_rows_fma<3>(ap, b, b_stride, k, alpha, beta, c, ldc, nr); break;
        case 2: gemm_rows_fma<2>(ap, b, b_stride, k, alpha, beta, c, ldc, nr); break;
        default: gemm_rows_fma<1>(ap, b, b_stride, k, alpha, beta, c, ldc, nr); break;
    }
}

/// One int8 GEMM output row with paired-k madd accumulation. Two consecutive
/// B rows are byte-interleaved (unpacklo/hi), widened to int16, and folded by
/// _mm256_madd_epi16 against a broadcast (a[p], a[p+1]) int16 pair — so lane
/// i accumulates b[p][j+i]*a[p] + b[p+1][j+i]*a[p+1]. Pure integer math:
/// bitwise identical to the scalar reference. Odd k pairs the last row with
/// zeros; a scalar loop covers the n%16 column tail. Overflow-safe for
/// k < 2^16 (each madd pair <= 2*127*127, summed in int32 over k/2 steps).
void gemm_i8_row_avx2(const std::int8_t* a_row, const std::int8_t* b,
                      std::int64_t ldb, int k, int n, std::int32_t* c_row) {
    const __m128i zero128 = _mm_setzero_si128();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256i acc_lo = _mm256_setzero_si256();
        __m256i acc_hi = _mm256_setzero_si256();
        for (int p = 0; p < k; p += 2) {
            const std::int32_t a0 = a_row[p];
            const std::int32_t a1 = (p + 1 < k) ? a_row[p + 1] : 0;
            if (a0 == 0 && a1 == 0) continue;
            const std::int8_t* bp = b + static_cast<std::int64_t>(p) * ldb + j;
            const __m128i b0 =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp));
            const __m128i b1 =
                (p + 1 < k)
                    ? _mm_loadu_si128(
                          reinterpret_cast<const __m128i*>(bp + ldb))
                    : zero128;
            const __m256i apair =
                _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
            const __m256i wlo =
                _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
            const __m256i whi =
                _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
            acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(wlo, apair));
            acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(whi, apair));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j), acc_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c_row + j + 8), acc_hi);
    }
    for (; j < n; ++j) {
        std::int32_t sum = 0;
        for (int p = 0; p < k; ++p) {
            sum += static_cast<std::int32_t>(a_row[p]) *
                   static_cast<std::int32_t>(
                       b[static_cast<std::int64_t>(p) * ldb + j]);
        }
        c_row[j] = sum;
    }
}

/// Four int8 GEMM output rows over a 4 x 16 register tile: each B row pair
/// is byte-interleaved and widened to int16 once, then madd-folded against
/// all four rows' broadcast (a[r][p], a[r][p+1]) pairs — 8 int32
/// accumulators, a quarter of gemm_i8_row's widening work per MAC. The A
/// pairs are pre-packed on the stack (so each broadcast is one load); k
/// beyond that buffer falls back to four gemm_i8_row calls, as does the
/// n%16 column tail. Integer math: bitwise identical to the scalar
/// reference.
void gemm_i8_4rows_avx2(const std::int8_t* a, std::int64_t lda,
                        const std::int8_t* b, std::int64_t ldb, int k, int n,
                        std::int32_t* c, std::int64_t ldc) {
    constexpr int kMaxK = 1024;
    if (k > kMaxK) {
        for (int r = 0; r < 4; ++r) {
            gemm_i8_row_avx2(a + r * lda, b, ldb, k, n, c + r * ldc);
        }
        return;
    }
    const int pairs = (k + 1) / 2;
    std::int32_t apair[kMaxK / 2][4];
    for (int q = 0; q < pairs; ++q) {
        for (int r = 0; r < 4; ++r) {
            const std::int8_t* arow = a + r * lda;
            const std::int32_t a0 = arow[2 * q];
            const std::int32_t a1 = 2 * q + 1 < k ? arow[2 * q + 1] : 0;
            apair[q][r] = (a1 << 16) | (a0 & 0xFFFF);
        }
    }
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256i c0l = _mm256_setzero_si256(), c0h = _mm256_setzero_si256();
        __m256i c1l = _mm256_setzero_si256(), c1h = _mm256_setzero_si256();
        __m256i c2l = _mm256_setzero_si256(), c2h = _mm256_setzero_si256();
        __m256i c3l = _mm256_setzero_si256(), c3h = _mm256_setzero_si256();
        const std::int8_t* bp = b + j;
        for (int q = 0; q < pairs; ++q, bp += 2 * ldb) {
            const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp));
            const __m128i b1 =
                2 * q + 1 < k
                    ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + ldb))
                    : _mm_setzero_si128();
            const __m256i wlo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
            const __m256i whi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
            const __m256i p0 = _mm256_set1_epi32(apair[q][0]);
            const __m256i p1 = _mm256_set1_epi32(apair[q][1]);
            const __m256i p2 = _mm256_set1_epi32(apair[q][2]);
            const __m256i p3 = _mm256_set1_epi32(apair[q][3]);
            c0l = _mm256_add_epi32(c0l, _mm256_madd_epi16(wlo, p0));
            c0h = _mm256_add_epi32(c0h, _mm256_madd_epi16(whi, p0));
            c1l = _mm256_add_epi32(c1l, _mm256_madd_epi16(wlo, p1));
            c1h = _mm256_add_epi32(c1h, _mm256_madd_epi16(whi, p1));
            c2l = _mm256_add_epi32(c2l, _mm256_madd_epi16(wlo, p2));
            c2h = _mm256_add_epi32(c2h, _mm256_madd_epi16(whi, p2));
            c3l = _mm256_add_epi32(c3l, _mm256_madd_epi16(wlo, p3));
            c3h = _mm256_add_epi32(c3h, _mm256_madd_epi16(whi, p3));
        }
        const __m256i tile[4][2] = {{c0l, c0h}, {c1l, c1h}, {c2l, c2h}, {c3l, c3h}};
        for (int r = 0; r < 4; ++r) {
            std::int32_t* cp = c + r * ldc + j;
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(cp), tile[r][0]);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(cp + 8), tile[r][1]);
        }
    }
    for (int r = 0; r < 4 && j < n; ++r) {
        gemm_i8_row_avx2(a + r * lda, b + j, ldb, k, n - j, c + r * ldc + j);
    }
}

/// clamp(round(x / scale), -127, 127) on 8 lanes, as int32. Round half away
/// from zero is rebuilt exactly from trunc: q - trunc(q) is exact in float,
/// so |q - trunc(q)| >= 0.5 picks the lanes std::round moves one step away
/// from zero. NaN lanes are zeroed before the clamp (the NaN -> 0 contract);
/// +-Inf clamps like any large value.
__m256i quantize8(__m256 x, __m256 scale) {
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 q = _mm256_div_ps(x, scale);
    const __m256 t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_andnot_ps(sign, _mm256_sub_ps(q, t));
    const __m256 step = _mm256_and_ps(
        _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ), _mm256_set1_ps(1.0f));
    __m256 r = _mm256_add_ps(t, _mm256_or_ps(step, _mm256_and_ps(q, sign)));
    r = _mm256_and_ps(r, _mm256_cmp_ps(q, q, _CMP_ORD_Q));
    r = _mm256_min_ps(_mm256_max_ps(r, _mm256_set1_ps(-127.0f)),
                      _mm256_set1_ps(127.0f));
    return _mm256_cvtps_epi32(r);
}

void quantize_row_avx2(const float* src, std::size_t n, float scale,
                       std::int8_t* dst) {
    const __m256 vs = _mm256_set1_ps(scale);
    // packs interleave 128-bit lanes; this permute restores element order.
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i q0 = quantize8(_mm256_loadu_ps(src + i), vs);
        const __m256i q1 = quantize8(_mm256_loadu_ps(src + i + 8), vs);
        const __m256i q2 = quantize8(_mm256_loadu_ps(src + i + 16), vs);
        const __m256i q3 = quantize8(_mm256_loadu_ps(src + i + 24), vs);
        const __m256i bytes = _mm256_packs_epi16(_mm256_packs_epi32(q0, q1),
                                                 _mm256_packs_epi32(q2, q3));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_permutevar8x32_epi32(bytes, order));
    }
    for (; i < n; ++i) dst[i] = impl::quantize_one(src[i], scale);
}

void requant_row_avx2(const std::int32_t* acc, std::size_t n, float requant,
                      float bias, float* dst) {
    const __m256 vr = _mm256_set1_ps(requant);
    const __m256 vb = _mm256_set1_ps(bias);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_cvtepi32_ps(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)));
        _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_mul_ps(v, vr), vb));
    }
    for (; i < n; ++i) dst[i] = impl::requant_one(acc[i], requant, bias);
}

/// 2x2/s2 max-pool, 8 outputs per step. Each row's 16 inputs are split into
/// even and odd taps with shuffle_ps, which leaves the outputs in the lane
/// order 0 1 4 5 | 2 3 6 7 for all four taps alike; the max is lane-wise, so
/// one 64-bit permute at the end restores the order. max_ps(tap, best)
/// returns best unless tap > best (also for NaN and equal zeros): the
/// reference fold lane by lane.
void maxpool2x2_row_avx2(const float* r0, const float* r1, std::size_t out_w,
                         float* dst) {
    const __m256 lowest = _mm256_set1_ps(-FLT_MAX);
    std::size_t x = 0;
    for (; x + 8 <= out_w; x += 8) {
        const __m256 a0 = _mm256_loadu_ps(r0 + 2 * x);
        const __m256 a1 = _mm256_loadu_ps(r0 + 2 * x + 8);
        const __m256 b0 = _mm256_loadu_ps(r1 + 2 * x);
        const __m256 b1 = _mm256_loadu_ps(r1 + 2 * x + 8);
        __m256 best = _mm256_max_ps(_mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), lowest);
        best = _mm256_max_ps(_mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        best = _mm256_max_ps(_mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), best);
        best = _mm256_max_ps(_mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), best);
        const __m256d ordered =
            _mm256_permute4x64_pd(_mm256_castps_pd(best), _MM_SHUFFLE(3, 1, 2, 0));
        _mm256_storeu_ps(dst + x, _mm256_castpd_ps(ordered));
    }
    for (; x < out_w; ++x) dst[x] = impl::maxpool2x2_one(r0 + 2 * x, r1 + 2 * x);
}

constexpr KernelTable kAvx2Table = {
    impl::copy_row<VecAvx2>,
    impl::add_bias_row<VecAvx2>,
    impl::scale_row<VecAvx2>,
    impl::normalize_row<VecAvx2>,
    impl::leaky_relu<VecAvx2>,
    impl::relu<VecAvx2>,
    impl::lerp_rows<VecAvx2>,
    gemm_micro_4x16_fma,
    gemm_i8_row_avx2,
    gemm_i8_4rows_avx2,
    quantize_row_avx2,
    requant_row_avx2,
    maxpool2x2_row_avx2,
};

}  // namespace

const KernelTable* avx2_kernel_table() noexcept { return &kAvx2Table; }

}  // namespace dronet::simd
