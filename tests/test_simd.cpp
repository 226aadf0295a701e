// Vectorized compute backend (src/simd): dispatch level control, the
// bit-exactness contract of the row kernels across levels, and the
// tolerance gate for the AVX2 FMA GEMM micro-kernel (which fuses each
// multiply-add into one rounding and therefore may differ from the scalar
// reference by accumulated ULPs, never more).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_vec(Rng& rng, std::size_t n, float lo = -2.0f,
                              float hi = 2.0f) {
    std::vector<float> v(n);
    rng.fill_uniform(v, lo, hi);
    return v;
}

TEST(SimdDispatch, ScalarAlwaysInstallable) {
    const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::kernels().gemm_micro_4x16, nullptr);
    EXPECT_EQ(std::string(simd::to_string(simd::SimdLevel::kScalar)), "scalar");
}

TEST(SimdDispatch, Avx2RequestHonoredOrDowngraded) {
    const simd::SimdLevel prev = simd::active_level();
    const simd::SimdLevel got = simd::set_level(simd::SimdLevel::kAvx2);
    if (simd::cpu_supports_avx2()) {
        EXPECT_EQ(got, simd::SimdLevel::kAvx2);
        EXPECT_NE(simd::kernels().gemm_micro_4x16, nullptr);
    } else {
        EXPECT_EQ(got, simd::SimdLevel::kScalar);
        EXPECT_EQ(simd::kernels().gemm_micro_4x16, nullptr);
    }
    simd::set_level(prev);
}

TEST(SimdDispatch, ScopedLevelRestores) {
    const simd::SimdLevel before = simd::active_level();
    {
        const simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
        EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
    }
    EXPECT_EQ(simd::active_level(), before);
}

// The row kernels (copies, epilogues, activations, lerp) perform identical
// per-element IEEE operations at both levels: their results must be bitwise
// equal, which is what keeps every pre-existing bit-exact test level-blind.
TEST(SimdKernels, RowKernelsBitwiseEqualAcrossLevels) {
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; only one level to test";
    }
    const simd::KernelTable* scalar = simd::scalar_kernel_table();
    const simd::KernelTable* avx2 = simd::avx2_kernel_table();
    ASSERT_NE(avx2, nullptr);
    Rng rng(101);
    // Sizes straddling the 8-lane width: tails, exact multiples, tiny runs.
    for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 31u, 257u, 1024u}) {
        const std::vector<float> base = random_vec(rng, n, -3.0f, 3.0f);

        std::vector<float> a = base, b = base;
        scalar->add_bias_row(a.data(), n, 0.7f);
        avx2->add_bias_row(b.data(), n, 0.7f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "add_bias_row n=" << n;

        a = base; b = base;
        scalar->scale_row(a.data(), n, -1.3f);
        avx2->scale_row(b.data(), n, -1.3f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "scale_row n=" << n;

        a = base; b = base;
        scalar->normalize_row(a.data(), n, 0.25f, 1.7f);
        avx2->normalize_row(b.data(), n, 0.25f, 1.7f);
        EXPECT_TRUE(bitwise_equal(a, b)) << "normalize_row n=" << n;

        a = base; b = base;
        scalar->leaky_relu(a.data(), n);
        avx2->leaky_relu(b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "leaky_relu n=" << n;

        a = base; b = base;
        scalar->relu(a.data(), n);
        avx2->relu(b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "relu n=" << n;

        const std::vector<float> other = random_vec(rng, n, -3.0f, 3.0f);
        a.assign(n, 0.0f); b.assign(n, 0.0f);
        scalar->lerp_rows(base.data(), other.data(), 0.3125f, a.data(), n);
        avx2->lerp_rows(base.data(), other.data(), 0.3125f, b.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "lerp_rows n=" << n;

        a.assign(n, -1.0f); b.assign(n, -1.0f);
        scalar->copy_row(a.data(), base.data(), n);
        avx2->copy_row(b.data(), base.data(), n);
        EXPECT_TRUE(bitwise_equal(a, b)) << "copy_row n=" << n;
    }
}

// Property sweep: the AVX2 FMA micro-kernel against the scalar packed kernel
// over random shapes. FMA skips one rounding per multiply-add, so error
// accumulates with k; the bound scales accordingly.
TEST(SimdGemm, Avx2WithinToleranceOfScalar) {
    if (!simd::cpu_supports_avx2()) {
        GTEST_SKIP() << "CPU/build lacks AVX2; nothing to compare";
    }
    Rng rng(2024);
    Rng shape_rng(77);
    std::vector<float> dims(3);
    for (int trial = 0; trial < 24; ++trial) {
        shape_rng.fill_uniform(dims, 1.0f, 96.0f);
        const int m = static_cast<int>(dims[0]);
        const int n = static_cast<int>(dims[1]);
        const int k = static_cast<int>(dims[2]);
        const bool trans_b = (trial % 3) == 2;
        const float alpha = (trial % 4 == 0) ? 0.5f : 1.0f;
        const float beta = (trial % 5 == 0) ? 1.0f : 0.0f;
        const auto a = random_vec(rng, static_cast<std::size_t>(m) * k, -1.0f, 1.0f);
        const auto b = random_vec(rng, static_cast<std::size_t>(k) * n, -1.0f, 1.0f);
        const auto c0 = random_vec(rng, static_cast<std::size_t>(m) * n, -1.0f, 1.0f);
        const int ldb = trans_b ? k : n;
        auto run = [&](simd::SimdLevel level) {
            const simd::ScopedSimdLevel pin(level);
            auto c = c0;
            gemm_blocked({false, trans_b, m, n, k, alpha, a.data(), k, b.data(),
                          ldb, beta, c.data(), n});
            return c;
        };
        const auto c_scalar = run(simd::SimdLevel::kScalar);
        const auto c_avx2 = run(simd::SimdLevel::kAvx2);
        const float tol = 2e-4f * (1.0f + static_cast<float>(k) / 256.0f);
        for (std::size_t i = 0; i < c_scalar.size(); ++i) {
            ASSERT_NEAR(c_scalar[i], c_avx2[i], tol)
                << "trial " << trial << " (" << m << "x" << n << "x" << k
                << ") at " << i;
        }
    }
}

}  // namespace
}  // namespace dronet
