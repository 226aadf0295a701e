// Kernel bodies, written once against the Vec interface (vec_base.hpp) and
// instantiated per capability: kernels_scalar.cpp with VecScalar and
// kernels_avx2.cpp with VecAvx2. Tails (< V::kWidth elements) use the same
// per-element expressions as the vector lanes, so both instantiations are
// bitwise-identical to the plain scalar loops they replaced.
#pragma once

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dronet::simd::impl {

/// The int8 quantizer's per-element reference: every level's quantize_row
/// (and its tail) evaluates exactly this. NaN maps to 0 — casting a NaN to an
/// integer is undefined behaviour.
inline std::int8_t quantize_one(float x, float scale) noexcept {
    const float q = std::round(x / scale);
    if (std::isnan(q)) return 0;
    return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

/// The requantize epilogue's per-element reference: multiply, then add, each
/// rounded (the library builds with -ffp-contract=off).
inline float requant_one(std::int32_t acc, float requant, float bias) noexcept {
    return static_cast<float>(acc) * requant + bias;
}

/// The 2x2/s2 max-pool's per-window reference: taps (0,0), (0,1), (1,0),
/// (1,1) folded from -FLT_MAX with `tap > best`, the generic pool loop's
/// order and comparison. Every level's maxpool2x2_row evaluates exactly this.
inline float maxpool2x2_one(const float* r0, const float* r1) noexcept {
    float best = -FLT_MAX;
    for (const float tap : {r0[0], r0[1], r1[0], r1[1]}) best = tap > best ? tap : best;
    return best;
}

template <class V>
void copy_row(float* dst, const float* src, std::size_t n) {
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) V::loadu(src + i).storeu(dst + i);
    for (; i < n; ++i) dst[i] = src[i];
}

template <class V>
void add_bias_row(float* p, std::size_t n, float bias) {
    const V vb = V::broadcast(bias);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) (V::loadu(p + i) + vb).storeu(p + i);
    for (; i < n; ++i) p[i] += bias;
}

template <class V>
void scale_row(float* p, std::size_t n, float scale) {
    const V vs = V::broadcast(scale);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) (V::loadu(p + i) * vs).storeu(p + i);
    for (; i < n; ++i) p[i] *= scale;
}

template <class V>
void normalize_row(float* p, std::size_t n, float mean, float inv_std) {
    const V vm = V::broadcast(mean);
    const V vi = V::broadcast(inv_std);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        ((V::loadu(p + i) - vm) * vi).storeu(p + i);
    }
    for (; i < n; ++i) p[i] = (p[i] - mean) * inv_std;
}

template <class V>
void leaky_relu(float* p, std::size_t n) {
    const V zero = V::zero();
    const V slope = V::broadcast(0.1f);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        const V x = V::loadu(p + i);
        V::blend(V::cmp_gt(x, zero), x, x * slope).storeu(p + i);
    }
    for (; i < n; ++i) p[i] = p[i] > 0 ? p[i] : 0.1f * p[i];
}

template <class V>
void relu(float* p, std::size_t n) {
    const V zero = V::zero();
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        // max(x, 0): second-operand-on-NaN semantics make a NaN input 0,
        // matching the `x > 0 ? x : 0` scalar tail.
        V::max(V::loadu(p + i), zero).storeu(p + i);
    }
    for (; i < n; ++i) p[i] = p[i] > 0 ? p[i] : 0.0f;
}

template <class V>
void lerp_rows(const float* a, const float* b, float w, float* dst, std::size_t n) {
    const V va = V::broadcast(1.0f - w);
    const V vb = V::broadcast(w);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth) {
        // mul, mul, add — the exact operation sequence of the scalar
        // expression `a*(1-w) + b*w`, so results are bitwise identical.
        (V::loadu(a + i) * va + V::loadu(b + i) * vb).storeu(dst + i);
    }
    for (; i < n; ++i) dst[i] = a[i] * (1.0f - w) + b[i] * w;
}

}  // namespace dronet::simd::impl
