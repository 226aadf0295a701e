// Dispatched kernel entry points backing the hot paths (tensor/gemm,
// tensor/gemm_i8, tensor/im2col, tensor/ops, nn/activation, nn/conv_layer,
// nn/maxpool_layer, image/resize).
//
// Callers fetch the active table once per call site via kernels() — one
// atomic acquire load — and invoke plain function pointers. The scalar table
// is always available; the AVX2 table exists when the binary was built with
// AVX2 kernels (x86-64) and is installed by dispatch when the CPU qualifies.
//
// Bit-exactness contract per entry (docs/vectorization.md):
//   * copy_row / add_bias_row / scale_row / normalize_row / leaky_relu /
//     relu / lerp_rows perform identical per-element IEEE operations at both
//     levels — results are bitwise equal regardless of dispatch.
//   * gemm_micro_4x16 is null on the scalar table (the caller keeps its
//     reference loops, full and edge tiles alike); the AVX2 entry runs every
//     tile, edge tiles included (masked loads and stores), with FMA and is
//     tolerance-gated against the scalar level.
//   * gemm_i8_row / gemm_i8_4rows are pure integer arithmetic — results are
//     bitwise identical across levels (memcmp-gated in test_quantize).
//   * quantize_row evaluates clamp(round(x / scale), -127, 127) with a true
//     IEEE divide and round-half-away-from-zero (AVX2: trunc, |q - trunc| >=
//     0.5 test, sign-adjusted +1 — exact because q - trunc(q) is exact), and
//     defines NaN -> 0 at every level: bitwise identical across levels for
//     every input, including ties, -0.0, denormals, +-Inf and NaN.
//   * requant_row evaluates float(acc) * requant + bias as a separate multiply
//     and add (the simd library builds with -ffp-contract=off, so neither
//     level fuses them): bitwise identical across levels.
//   * maxpool2x2_row folds each window's four taps from -FLT_MAX with
//     `tap > best ? tap : best` in tap order (AVX2: max_ps(tap, best), which
//     is that expression lane by lane): bitwise identical across levels for
//     every input, NaN, +-0 and -inf included.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dronet::simd {

struct KernelTable {
    void (*copy_row)(float* dst, const float* src, std::size_t n);
    void (*add_bias_row)(float* p, std::size_t n, float bias);
    void (*scale_row)(float* p, std::size_t n, float scale);
    void (*normalize_row)(float* p, std::size_t n, float mean, float inv_std);
    void (*leaky_relu)(float* p, std::size_t n);
    void (*relu)(float* p, std::size_t n);
    /// dst[i] = a[i]*(1-w) + b[i]*w — the bilinear vertical pass.
    void (*lerp_rows)(const float* a, const float* b, float w, float* dst,
                      std::size_t n);
    /// One C tile of up to 4x16: c[r][j] = alpha*sum_k(ap[k*4+r]*b[k*b_stride+j])
    /// + beta*c[r][j] for r < mr <= 4, j < nr <= 16. ap is a packed 4-lane A
    /// panel (pad lanes zero); B columns and C elements outside the tile are
    /// neither read nor written. Null on the scalar table (the caller's
    /// reference loops run).
    void (*gemm_micro_4x16)(const float* ap, const float* b,
                            std::int64_t b_stride, int k, float alpha,
                            float beta, float* c, std::int64_t ldc, int mr,
                            int nr);
    /// One output row of the int8 GEMM with int32 accumulation (overwrites):
    /// c_row[j] = sum_p a_row[p] * b[p*ldb + j], j in [0, n). Integer math —
    /// bitwise identical across levels. Overflow-safe for k < 2^16.
    void (*gemm_i8_row)(const std::int8_t* a_row, const std::int8_t* b,
                        std::int64_t ldb, int k, int n, std::int32_t* c_row);
    /// Four consecutive output rows of the int8 GEMM (overwrites):
    /// c[r*ldc + j] = sum_p a[r*lda + p] * b[p*ldb + j], r in [0, 4), j in
    /// [0, n). The same integers as four gemm_i8_row calls; the AVX2 level
    /// widens each B row pair once for all four rows.
    void (*gemm_i8_4rows)(const std::int8_t* a, std::int64_t lda,
                          const std::int8_t* b, std::int64_t ldb, int k, int n,
                          std::int32_t* c, std::int64_t ldc);
    /// dst[i] = clamp(round(src[i] / scale), -127, 127), round half away from
    /// zero, NaN -> 0 — the symmetric int8 quantizer.
    void (*quantize_row)(const float* src, std::size_t n, float scale,
                         std::int8_t* dst);
    /// dst[i] = float(acc[i]) * requant + bias — the int8 conv's dequantize
    /// epilogue (activation runs after, through leaky_relu / relu).
    void (*requant_row)(const std::int32_t* acc, std::size_t n, float requant,
                        float bias, float* dst);
    /// One output row of the 2x2/s2 max-pool over full windows:
    /// dst[x] = max of r0[2x], r0[2x+1], r1[2x], r1[2x+1], x in [0, out_w),
    /// each folded from -FLT_MAX as `best = tap > best ? tap : best` — so a
    /// NaN tap never wins and -0.0 never displaces an earlier +0.0.
    void (*maxpool2x2_row)(const float* r0, const float* r1, std::size_t out_w,
                           float* dst);
};

/// The table for the active dispatch level (dispatch.hpp).
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Tables by capability; scalar_kernel_table() always exists,
/// avx2_kernel_table() returns null when the binary carries no AVX2 kernels.
[[nodiscard]] const KernelTable* scalar_kernel_table() noexcept;
[[nodiscard]] const KernelTable* avx2_kernel_table() noexcept;

}  // namespace dronet::simd
