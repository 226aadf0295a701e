#include "tensor/gemm_i8.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <functional>

#include "analysis/numerics.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/thread_pool.hpp"

namespace dronet {
namespace {

/// Columns per cache block: the B stripe (k x 256 bytes) stays cache-resident
/// while every row tile of the filter count sweeps it.
constexpr int kColBlock = 256;

/// C[:, col_begin:col_end) for all m rows: 4-row tiles, then the m % 4 rows
/// through the row kernel.
void gemm_i8_cols(int col_begin, int col_end, int m, int k, const std::int8_t* a,
                  int lda, const std::int8_t* b, int ldb, std::int32_t* c,
                  int ldc) {
    const simd::KernelTable& kt = simd::kernels();
    for (int j = col_begin; j < col_end; j += kColBlock) {
        const int n = std::min(kColBlock, col_end - j);
        int i = 0;
        for (; i + 4 <= m; i += 4) {
            kt.gemm_i8_4rows(a + static_cast<std::int64_t>(i) * lda, lda, b + j, ldb,
                             k, n, c + static_cast<std::int64_t>(i) * ldc + j, ldc);
        }
        for (; i < m; ++i) {
            kt.gemm_i8_row(a + static_cast<std::int64_t>(i) * lda, b + j, ldb, k, n,
                           c + static_cast<std::int64_t>(i) * ldc + j);
        }
    }
}

}  // namespace

void gemm_i8(int m, int n, int k, const std::int8_t* a, int lda,
             const std::int8_t* b, int ldb, std::int32_t* c, int ldc) {
    const int threads = gemm_threads();
    const std::int64_t macs = static_cast<std::int64_t>(m) * n * k;
    if (threads > 1 && macs >= 16 * 1024) {
        // Filter counts are small (m = 5-38 in the zoo) while n is the output
        // plane, so shard columns, in whole 16-column tiles.
        // std::cref keeps the pool's std::function small enough to live
        // inline: no heap allocation per call.
        const auto shard = [&](int lo, int hi) {
            gemm_i8_cols(lo * 16, std::min(hi * 16, n), m, k, a, lda, b, ldb, c, ldc);
        };
        ThreadPool::instance().parallel_for(0, (n + 15) / 16, threads, 1, std::cref(shard));
        return;
    }
    gemm_i8_cols(0, n, m, k, a, lda, b, ldb, c, ldc);
}

std::int8_t quantize_value(float x, float scale) noexcept {
    std::int8_t q = 0;
    simd::scalar_kernel_table()->quantize_row(&x, 1, scale, &q);
    return q;
}

float quantization_scale(const float* x, std::int64_t n) {
    const bool guard = numerics_checks_enabled();
    float mx = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        if (!std::isfinite(v)) {
            if (guard) throw NumericsError("quantization_scale input", i, v);
            // NaN carries no magnitude information — skip it; Inf saturates
            // the range, so the scale clamps to the largest finite max.
            if (std::isnan(v)) continue;
            mx = FLT_MAX;
            continue;
        }
        mx = std::max(mx, std::fabs(v));
    }
    return mx > 0.0f ? mx / 127.0f : 1.0f;
}

void quantize_buffer(const float* x, std::int64_t n, float scale, std::int8_t* out) noexcept {
    simd::kernels().quantize_row(x, static_cast<std::size_t>(n), scale, out);
}

}  // namespace dronet
