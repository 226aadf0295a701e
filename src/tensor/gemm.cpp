#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "simd/kernels.hpp"
#include "tensor/thread_pool.hpp"

namespace dronet {
namespace {

std::atomic<int> g_gemm_threads{1};

// Micro-kernel tile: kMr rows of C by kNr columns, accumulators held in
// registers. 4x16 keeps the accumulator block within the SSE register budget
// after unrolling while amortizing each B-row load over four C rows.
constexpr int kMr = 4;
constexpr int kNr = 16;

// Problems below this many multiply-accumulates run serially: a trip through
// the pool queue costs a few microseconds, which such calls finish in anyway.
constexpr std::int64_t kMinParallelMacs = 16 * 1024;

inline float a_elem(const GemmArgs& g, int i, int p) {
    return g.trans_a ? g.a[static_cast<std::int64_t>(p) * g.lda + i]
                     : g.a[static_cast<std::int64_t>(i) * g.lda + p];
}

inline float b_elem(const GemmArgs& g, int p, int j) {
    return g.trans_b ? g.b[static_cast<std::int64_t>(j) * g.ldb + p]
                     : g.b[static_cast<std::int64_t>(p) * g.ldb + j];
}

void validate(const GemmArgs& g) {
    if (g.m < 0 || g.n < 0 || g.k < 0) {
        throw std::invalid_argument("gemm: negative dimension");
    }
    if ((g.m > 0 && g.k > 0 && g.a == nullptr) ||
        (g.k > 0 && g.n > 0 && g.b == nullptr) ||
        (g.m > 0 && g.n > 0 && g.c == nullptr)) {
        throw std::invalid_argument("gemm: null matrix pointer");
    }
}

// ---- packing ---------------------------------------------------------------
// Panels are packed into thread-local scratch so worker threads never share
// buffers. Layout is k-major with a fixed tile stride (kMr / kNr); pad lanes
// of edge tiles are zero-filled so the fast kernels may read them.

float* a_scratch(std::size_t floats) {
    thread_local std::vector<float> buf;
    if (buf.size() < floats) buf.resize(floats);
    return buf.data();
}

float* b_scratch(std::size_t floats) {
    thread_local std::vector<float> buf;
    if (buf.size() < floats) buf.resize(floats);
    return buf.data();
}

/// dst[kk*kMr + ii] = op(A)(i0+ii, kk) for ii < mr, 0 for pad lanes.
void pack_a(const GemmArgs& g, int i0, int mr, float* dst) {
    if (!g.trans_a) {
        for (int kk = 0; kk < g.k; ++kk) {
            float* out = dst + static_cast<std::int64_t>(kk) * kMr;
            for (int ii = 0; ii < mr; ++ii) {
                out[ii] = g.a[static_cast<std::int64_t>(i0 + ii) * g.lda + kk];
            }
            for (int ii = mr; ii < kMr; ++ii) out[ii] = 0.0f;
        }
    } else {
        for (int kk = 0; kk < g.k; ++kk) {
            const float* src = g.a + static_cast<std::int64_t>(kk) * g.lda + i0;
            float* out = dst + static_cast<std::int64_t>(kk) * kMr;
            for (int ii = 0; ii < mr; ++ii) out[ii] = src[ii];
            for (int ii = mr; ii < kMr; ++ii) out[ii] = 0.0f;
        }
    }
}

/// dst[kk*kNr + jj] = op(B)(kk, j0+jj) for jj < nr (trans_b layout only).
void pack_b(const GemmArgs& g, int j0, int nr, float* dst) {
    for (int kk = 0; kk < g.k; ++kk) {
        float* out = dst + static_cast<std::int64_t>(kk) * kNr;
        for (int jj = 0; jj < nr; ++jj) {
            out[jj] = g.b[static_cast<std::int64_t>(j0 + jj) * g.ldb + kk];
        }
        for (int jj = nr; jj < kNr; ++jj) out[jj] = 0.0f;
    }
}

// ---- micro-kernels ---------------------------------------------------------
// Every kernel accumulates each C element over the full k range in ascending
// order into a fresh float accumulator and finishes with
//   c = alpha * acc + beta * c
// which is the exact operation sequence of gemm_naive — hence bit-exact
// results, independent of tiling and thread count.

void write_tile(const GemmArgs& g, const float acc[kMr][kNr], int i0, int j0,
                int mr, int nr) {
    for (int ii = 0; ii < mr; ++ii) {
        float* crow = g.c + static_cast<std::int64_t>(i0 + ii) * g.ldc + j0;
        for (int jj = 0; jj < nr; ++jj) {
            crow[jj] = g.alpha * acc[ii][jj] + g.beta * crow[jj];
        }
    }
}

/// Full 4x16 tile, B read in place (row-major, !trans_b).
void micro_full_direct(const GemmArgs& g, const float* ap, int i0, int j0) {
    float acc[kMr][kNr] = {};
    const float* b = g.b + j0;
    for (int kk = 0; kk < g.k; ++kk) {
        const float* brow = b + static_cast<std::int64_t>(kk) * g.ldb;
        const float a0 = ap[0];
        const float a1 = ap[1];
        const float a2 = ap[2];
        const float a3 = ap[3];
        ap += kMr;
        for (int jj = 0; jj < kNr; ++jj) {
            const float bv = brow[jj];
            acc[0][jj] += a0 * bv;
            acc[1][jj] += a1 * bv;
            acc[2][jj] += a2 * bv;
            acc[3][jj] += a3 * bv;
        }
    }
    write_tile(g, acc, i0, j0, kMr, kNr);
}

/// Full 4x16 tile against a packed B panel (trans_b path).
void micro_full_packed(const GemmArgs& g, const float* ap, const float* bp,
                       int i0, int j0) {
    float acc[kMr][kNr] = {};
    for (int kk = 0; kk < g.k; ++kk) {
        const float* brow = bp + static_cast<std::int64_t>(kk) * kNr;
        const float a0 = ap[0];
        const float a1 = ap[1];
        const float a2 = ap[2];
        const float a3 = ap[3];
        ap += kMr;
        for (int jj = 0; jj < kNr; ++jj) {
            const float bv = brow[jj];
            acc[0][jj] += a0 * bv;
            acc[1][jj] += a1 * bv;
            acc[2][jj] += a2 * bv;
            acc[3][jj] += a3 * bv;
        }
    }
    write_tile(g, acc, i0, j0, kMr, kNr);
}

/// Edge tile (mr < kMr and/or nr < kNr). bp may be null (read B in place).
void micro_edge(const GemmArgs& g, const float* ap, const float* bp, int i0,
                int j0, int mr, int nr) {
    float acc[kMr][kNr] = {};
    for (int kk = 0; kk < g.k; ++kk) {
        const float* brow = bp != nullptr
                                ? bp + static_cast<std::int64_t>(kk) * kNr
                                : g.b + static_cast<std::int64_t>(kk) * g.ldb + j0;
        const float* av = ap + static_cast<std::int64_t>(kk) * kMr;
        for (int ii = 0; ii < mr; ++ii) {
            const float a = av[ii];
            for (int jj = 0; jj < nr; ++jj) acc[ii][jj] += a * brow[jj];
        }
    }
    write_tile(g, acc, i0, j0, mr, nr);
}

/// Packed kernel over a row range [row_begin, row_end) of C.
void packed_rows(const GemmArgs& g, int row_begin, int row_end) {
    if (row_begin >= row_end || g.n <= 0) return;
    if (g.k <= 0) {
        // Degenerate k: C = alpha*0 + beta*C, same expression as gemm_naive.
        for (int i = row_begin; i < row_end; ++i) {
            float* crow = g.c + static_cast<std::int64_t>(i) * g.ldc;
            for (int j = 0; j < g.n; ++j) crow[j] = g.alpha * 0.0f + g.beta * crow[j];
        }
        return;
    }
    // Fetched once per row range: null on the scalar level (the reference
    // loops below stay the kernel), the FMA tile on AVX2. Edge tiles always
    // take the scalar path — only full 4x16 tiles dispatch.
    const auto micro_simd = simd::kernels().gemm_micro_4x16;
    float* ap = a_scratch(static_cast<std::size_t>(kMr) * std::max(1, g.k));
    if (!g.trans_b) {
        for (int i0 = row_begin; i0 < row_end; i0 += kMr) {
            const int mr = std::min(kMr, row_end - i0);
            pack_a(g, i0, mr, ap);
            int j0 = 0;
            if (mr == kMr) {
                for (; j0 + kNr <= g.n; j0 += kNr) {
                    if (micro_simd != nullptr) {
                        micro_simd(ap, g.b + j0, g.ldb, g.k, g.alpha, g.beta,
                                   g.c + static_cast<std::int64_t>(i0) * g.ldc + j0,
                                   g.ldc);
                    } else {
                        micro_full_direct(g, ap, i0, j0);
                    }
                }
            }
            for (; j0 < g.n; j0 += kNr) {
                micro_edge(g, ap, nullptr, i0, j0, mr, std::min(kNr, g.n - j0));
            }
        }
    } else {
        // op(B) columns are strided in memory; pack one k x kNr panel at a
        // time and sweep the row range against it. A is repacked per panel —
        // ~1/kNr of the multiply work, which the contiguous inner loop repays.
        float* bp = b_scratch(static_cast<std::size_t>(kNr) * std::max(1, g.k));
        for (int j0 = 0; j0 < g.n; j0 += kNr) {
            const int nr = std::min(kNr, g.n - j0);
            pack_b(g, j0, nr, bp);
            for (int i0 = row_begin; i0 < row_end; i0 += kMr) {
                const int mr = std::min(kMr, row_end - i0);
                pack_a(g, i0, mr, ap);
                if (mr == kMr && nr == kNr) {
                    if (micro_simd != nullptr) {
                        micro_simd(ap, bp, kNr, g.k, g.alpha, g.beta,
                                   g.c + static_cast<std::int64_t>(i0) * g.ldc + j0,
                                   g.ldc);
                    } else {
                        micro_full_packed(g, ap, bp, i0, j0);
                    }
                } else {
                    micro_edge(g, ap, bp, i0, j0, mr, nr);
                }
            }
        }
    }
}

}  // namespace

void gemm_naive(const GemmArgs& g) {
    validate(g);
    for (int i = 0; i < g.m; ++i) {
        for (int j = 0; j < g.n; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < g.k; ++p) acc += a_elem(g, i, p) * b_elem(g, p, j);
            float& c = g.c[static_cast<std::int64_t>(i) * g.ldc + j];
            c = g.alpha * acc + g.beta * c;
        }
    }
}

void gemm_blocked(const GemmArgs& g) {
    validate(g);
    packed_rows(g, 0, g.m);
}

void gemm_threaded(const GemmArgs& g, int threads) {
    validate(g);
    if (g.m <= 0) return;
    threads = std::max(1, threads);
    const std::int64_t macs = static_cast<std::int64_t>(g.m) * g.n * g.k;
    if (threads == 1 || macs < kMinParallelMacs) {
        packed_rows(g, 0, g.m);
        return;
    }
    ThreadPool::instance().parallel_for(
        0, g.m, threads, kMr,
        [&g](int lo, int hi) { packed_rows(g, lo, hi); });
}

void gemm_halfw(int m, int n, int k, const std::uint16_t* a, int lda,
                const float* b, int ldb, float* c, int ldc) {
    if (m < 0 || n < 0 || k < 0) {
        throw std::invalid_argument("gemm_halfw: negative dimension");
    }
    if ((m > 0 && k > 0 && a == nullptr) || (k > 0 && n > 0 && b == nullptr) ||
        (m > 0 && n > 0 && c == nullptr)) {
        throw std::invalid_argument("gemm_halfw: null matrix pointer");
    }
    if (m <= 0) return;
    const auto worker = [&](int lo, int hi) {
        // Widen this worker's A rows once into thread-local scratch, then run
        // the ordinary packed kernel on them. Accumulation order is therefore
        // identical to gemm() on a pre-rounded A — the fp16 path adds exactly
        // one rounding step (the storage format), nothing else.
        thread_local std::vector<float> a32;
        const std::size_t rows = static_cast<std::size_t>(hi - lo);
        const std::size_t need = rows * static_cast<std::size_t>(k);
        if (a32.size() < need) a32.resize(need);
        for (int i = lo; i < hi; ++i) {
            simd::kernels().halfs_to_floats(
                a + static_cast<std::int64_t>(i) * lda,
                a32.data() + static_cast<std::size_t>(i - lo) * k,
                static_cast<std::size_t>(k));
        }
        GemmArgs sub;
        sub.m = hi - lo;
        sub.n = n;
        sub.k = k;
        sub.alpha = 1.0f;
        sub.a = a32.data();
        sub.lda = k;
        sub.b = b;
        sub.ldb = ldb;
        sub.beta = 0.0f;
        sub.c = c + static_cast<std::int64_t>(lo) * ldc;
        sub.ldc = ldc;
        packed_rows(sub, 0, sub.m);
    };
    const int threads = g_gemm_threads.load(std::memory_order_relaxed);
    const std::int64_t macs = static_cast<std::int64_t>(m) * n * k;
    if (threads <= 1 || macs < kMinParallelMacs) {
        worker(0, m);
        return;
    }
    ThreadPool::instance().parallel_for(0, m, threads, kMr, worker);
}

void gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta, float* c,
          int ldc) {
    const GemmArgs g{trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc};
    gemm_threaded(g, g_gemm_threads.load(std::memory_order_relaxed));
}

void set_gemm_threads(int threads) {
    g_gemm_threads.store(std::max(1, threads), std::memory_order_relaxed);
}

int gemm_threads() { return g_gemm_threads.load(std::memory_order_relaxed); }

std::int64_t gemm_flops(int m, int n, int k) noexcept {
    return 2LL * m * n * k;
}

}  // namespace dronet
