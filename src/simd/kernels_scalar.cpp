// Scalar instantiation of the kernel templates — the always-available,
// bit-exact dispatch level. gemm_micro_4x16 stays null: tensor/gemm.cpp keeps
// its reference micro-kernel loops on this level.
#include "simd/kernels.hpp"

#include <algorithm>

#include "simd/kernels_impl.hpp"
#include "simd/vec_base.hpp"

namespace dronet::simd {
namespace {

void gemm_i8_row_scalar(const std::int8_t* a_row, const std::int8_t* b,
                        std::int64_t ldb, int k, int n, std::int32_t* c_row) {
    std::fill(c_row, c_row + n, 0);
    for (int p = 0; p < k; ++p) {
        const std::int32_t a_p = a_row[p];
        if (a_p == 0) continue;
        const std::int8_t* brow = b + static_cast<std::int64_t>(p) * ldb;
        for (int j = 0; j < n; ++j) {
            c_row[j] += a_p * static_cast<std::int32_t>(brow[j]);
        }
    }
}

void gemm_i8_4rows_scalar(const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb, int k, int n,
                          std::int32_t* c, std::int64_t ldc) {
    for (int r = 0; r < 4; ++r) {
        gemm_i8_row_scalar(a + r * lda, b, ldb, k, n, c + r * ldc);
    }
}

void quantize_row_scalar(const float* src, std::size_t n, float scale,
                         std::int8_t* dst) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = impl::quantize_one(src[i], scale);
}

void requant_row_scalar(const std::int32_t* acc, std::size_t n, float requant,
                        float bias, float* dst) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = impl::requant_one(acc[i], requant, bias);
}

void maxpool2x2_row_scalar(const float* r0, const float* r1, std::size_t out_w,
                           float* dst) {
    for (std::size_t x = 0; x < out_w; ++x) {
        dst[x] = impl::maxpool2x2_one(r0 + 2 * x, r1 + 2 * x);
    }
}

constexpr KernelTable kScalarTable = {
    impl::copy_row<VecScalar>,
    impl::add_bias_row<VecScalar>,
    impl::scale_row<VecScalar>,
    impl::normalize_row<VecScalar>,
    impl::leaky_relu<VecScalar>,
    impl::relu<VecScalar>,
    impl::lerp_rows<VecScalar>,
    nullptr,  // gemm_micro_4x16: scalar level keeps the reference loop
    gemm_i8_row_scalar,
    gemm_i8_4rows_scalar,
    quantize_row_scalar,
    requant_row_scalar,
    maxpool2x2_row_scalar,
};

}  // namespace

const KernelTable* scalar_kernel_table() noexcept { return &kScalarTable; }

}  // namespace dronet::simd
