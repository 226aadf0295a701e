// INT8 quantization path (§V future-work extension): int8 GEMM correctness
// and cross-SIMD-level bit-exactness (row kernel and 4-row tile, threaded),
// quantize_row / requant_row cross-level memcmp, quantization helpers
// (including the non-finite-input regressions), the quantize-once int8
// lowering against the float-col reference, per-image calibration against a
// batch-N pass, quantized-network behavior through Network::forward across
// batch sizes and input resolutions (allocation-free, bit-stable per item;
// profiler, fault site and train guard), fuzzed degenerate weights through
// calibration, the int8 serving tier, and the pretrained-checkpoint accuracy
// gate against fp32.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "analysis/numerics.hpp"
#include "data/dataset.hpp"
#include "eval/evaluator.hpp"
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "nn/clone.hpp"
#include "nn/quantize.hpp"
#include "profile/profiler.hpp"
#include "serve/detection_service.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_i8.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

using serve::DetectionService;
using serve::ServeResult;
using serve::ServeStatus;

/// The kernel tables this host can run: scalar always, AVX2 when built in and
/// supported. Integer and quantize kernels must agree bitwise across them.
std::vector<const simd::KernelTable*> runnable_tables() {
    std::vector<const simd::KernelTable*> tables = {simd::scalar_kernel_table()};
    if (simd::cpu_supports_avx2() && simd::avx2_kernel_table() != nullptr) {
        tables.push_back(simd::avx2_kernel_table());
    }
    return tables;
}

/// The conv layers of `net` in order (their int8 snapshots once quantized).
std::vector<ConvolutionalLayer*> conv_layers(Network& net) {
    std::vector<ConvolutionalLayer*> convs;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(static_cast<int>(i)))) {
            convs.push_back(conv);
        }
    }
    return convs;
}

std::vector<std::int8_t> random_i8(Rng& rng, std::size_t n) {
    std::vector<std::int8_t> v(n);
    for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    return v;
}

/// The pre-SIMD quantizer, kept as the oracle: std::round (half away from
/// zero), clamp, and the NaN -> 0 definition.
std::int8_t reference_quantize(float x, float scale) {
    const float q = std::round(x / scale);
    if (std::isnan(q)) return 0;
    return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

TEST(GemmI8, MatchesIntegerReference) {
    Rng rng(3);
    const int m = 5, n = 7, k = 9;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
    std::vector<std::int8_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
    gemm_i8(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (int p = 0; p < k; ++p) {
                acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i) * k + p]) *
                       static_cast<std::int32_t>(b[static_cast<std::size_t>(p) * n + j]);
            }
            EXPECT_EQ(c[static_cast<std::size_t>(i) * n + j], acc);
        }
    }
}

TEST(GemmI8, OverwritesOutput) {
    std::vector<std::int8_t> a = {1};
    std::vector<std::int8_t> b = {2};
    std::vector<std::int32_t> c = {999};
    gemm_i8(1, 1, 1, a.data(), 1, b.data(), 1, c.data(), 1);
    EXPECT_EQ(c[0], 2);
}

TEST(GemmI8, BitExactAcrossSimdLevels) {
    // Integer kernels are memcmp-identical across dispatch levels (unlike the
    // tolerance-gated float FMA kernels) and thread counts. Shapes hit the
    // 4-row tile's m % 4 leftover rows (row kernel), the n % 16 column tail,
    // odd-k pairing, n = 300 across the 256-column cache block, and k = 1100
    // past the tile's stack-packed A limit (four row-kernel calls). Threaded
    // runs shard columns in 16-wide tiles.
    Rng rng(21);
    const int saved_threads = gemm_threads();
    for (const auto [m, n, k] : {std::array<int, 3>{4, 37, 13},
                                 std::array<int, 3>{3, 16, 8},
                                 std::array<int, 3>{7, 61, 27},
                                 std::array<int, 3>{4, 16, 1},
                                 std::array<int, 3>{5, 17, 3},
                                 std::array<int, 3>{6, 33, 27},
                                 std::array<int, 3>{8, 300, 9},
                                 std::array<int, 3>{13, 64, 45},
                                 std::array<int, 3>{9, 40, 1100}}) {
        const auto a = random_i8(rng, static_cast<std::size_t>(m) * k);
        const auto b = random_i8(rng, static_cast<std::size_t>(k) * n);
        std::vector<std::int32_t> want(static_cast<std::size_t>(m) * n, 0);
        for (int i = 0; i < m; ++i) {
            for (int p = 0; p < k; ++p) {
                for (int j = 0; j < n; ++j) {
                    want[static_cast<std::size_t>(i) * n + j] +=
                        static_cast<std::int32_t>(a[static_cast<std::size_t>(i) * k + p]) *
                        static_cast<std::int32_t>(b[static_cast<std::size_t>(p) * n + j]);
                }
            }
        }
        for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
            const simd::ScopedSimdLevel pin(level);
            for (const int threads : {1, 3}) {
                set_gemm_threads(threads);
                std::vector<std::int32_t> c(want.size(), -7);
                gemm_i8(m, n, k, a.data(), k, b.data(), n, c.data(), n);
                EXPECT_EQ(0, std::memcmp(c.data(), want.data(), c.size() * sizeof(std::int32_t)))
                    << m << "x" << n << "x" << k << " " << simd::to_string(simd::active_level())
                    << " threads " << threads;
            }
        }
    }
    set_gemm_threads(saved_threads);
}

TEST(GemmI8, FourRowKernelHonorsStrides) {
    // Direct table calls with lda > k and ldc > n: the tile must read and
    // write only its 4 x n window of a wider matrix.
    Rng rng(0x57d);
    const int k = 11, n = 37, lda = 16, ldb = 40, ldc = 45;
    const auto a = random_i8(rng, static_cast<std::size_t>(4) * lda);
    const auto b = random_i8(rng, static_cast<std::size_t>(k) * ldb);
    std::vector<std::int32_t> want(static_cast<std::size_t>(4) * ldc, -3);
    for (int r = 0; r < 4; ++r) {
        simd::scalar_kernel_table()->gemm_i8_row(a.data() + r * lda, b.data(), ldb, k, n,
                                                 want.data() + r * ldc);
    }
    for (const simd::KernelTable* kt : runnable_tables()) {
        std::vector<std::int32_t> c(want.size(), -3);
        kt->gemm_i8_4rows(a.data(), lda, b.data(), ldb, k, n, c.data(), ldc);
        EXPECT_EQ(0, std::memcmp(c.data(), want.data(), c.size() * sizeof(std::int32_t)));
    }
}

TEST(Quantization, ScaleAndRoundTrip) {
    const std::vector<float> x = {-2.0f, 0.5f, 1.0f, 2.0f};
    const float scale = quantization_scale(x.data(), static_cast<std::int64_t>(x.size()));
    EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
    std::vector<std::int8_t> q(x.size());
    quantize_buffer(x.data(), static_cast<std::int64_t>(x.size()), scale, q.data());
    EXPECT_EQ(q[0], -127);
    EXPECT_EQ(q[3], 127);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(static_cast<float>(q[i]) * scale, x[i], scale);
    }
}

TEST(Quantization, ZeroBufferScaleIsOne) {
    const std::vector<float> x(4, 0.0f);
    EXPECT_FLOAT_EQ(quantization_scale(x.data(), 4), 1.0f);
}

TEST(Quantization, ValueClamps) {
    EXPECT_EQ(quantize_value(1e9f, 1.0f), 127);
    EXPECT_EQ(quantize_value(-1e9f, 1.0f), -127);
    EXPECT_EQ(quantize_value(0.0f, 1.0f), 0);
}

TEST(Quantization, NonFiniteThrowsUnderNumericsChecks) {
    // Regression: std::max(mx, fabs(NaN)) silently kept the old max (NaN
    // comparisons are false), so a poisoned buffer produced a plausible scale
    // and an Inf an Inf scale. Under the numerics guard both now throw.
    set_numerics_checks(true);
    const std::vector<float> with_nan = {1.0f, std::numeric_limits<float>::quiet_NaN()};
    const std::vector<float> with_inf = {1.0f, std::numeric_limits<float>::infinity()};
    EXPECT_THROW((void)quantization_scale(with_nan.data(), 2), NumericsError);
    EXPECT_THROW((void)quantization_scale(with_inf.data(), 2), NumericsError);
    set_numerics_checks(false);
}

TEST(Quantization, NonFiniteYieldsFiniteScaleWithoutChecks) {
    set_numerics_checks(false);
    // NaN carries no magnitude information: the scale comes from the finite
    // values alone.
    const std::vector<float> with_nan = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                                         2.0f};
    EXPECT_FLOAT_EQ(quantization_scale(with_nan.data(), 3), 2.0f / 127.0f);
    // Inf saturates the range: the scale clamps to the largest finite max
    // instead of propagating Inf into every requantize multiplier.
    const std::vector<float> with_inf = {1.0f, -std::numeric_limits<float>::infinity()};
    const float s = quantization_scale(with_inf.data(), 2);
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_FLOAT_EQ(s, FLT_MAX / 127.0f);
}

TEST(Quantization, NanQuantizesToZero) {
    // Regression: std::clamp passes NaN through, and casting NaN to int8 is
    // undefined behaviour. NaN is now defined to quantize to 0, in the scalar
    // reference and in every level's quantize_row (body lanes and tail).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(quantize_value(nan, 1.0f), 0);
    EXPECT_EQ(quantize_value(-nan, 0.25f), 0);
    std::vector<float> x(40, nan);
    x[3] = 5.0f;
    for (const simd::KernelTable* kt : runnable_tables()) {
        std::vector<std::int8_t> q(x.size(), 99);
        kt->quantize_row(x.data(), x.size(), 1.0f, q.data());
        for (std::size_t i = 0; i < q.size(); ++i) {
            EXPECT_EQ(q[i], i == 3 ? 5 : 0) << "element " << i;
        }
    }
}

TEST(Quantization, QuantizeRowBitExactAcrossLevels) {
    // Ties round away from zero (the AVX2 level rebuilds std::round from
    // trunc + a |frac| >= 0.5 test), the +-127 clamp, -0.0, denormals, huge
    // values, infinities and NaN — placed in both the 32-wide vector body and
    // the scalar tail, at several scales.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> x = {0.5f,    -0.5f,   1.5f,    -1.5f,   2.5f,   -2.5f,
                            126.5f,  -126.5f, 127.5f,  -127.5f, 0.49999997f,
                            -0.49999997f,     -0.0f,   0.0f,    denorm, -denorm,
                            1e-40f,  -1e-40f, 1.17e-38f,        1e9f,   -1e9f,
                            inf,     -inf,    nan,     8388607.5f, -8388608.0f,
                            3.0f,    -3.0f,   0.7f,    -0.7f,   200.0f, -200.0f};
    Rng rng(0x9a7);
    for (int i = 0; i < 200; ++i) x.push_back(rng.uniform(-300.0f, 300.0f));
    for (int i = 0; i < 64; ++i) {
        x.push_back(static_cast<float>(rng.uniform_int(-260, 260)) * 0.5f);  // ties
    }
    const std::vector<float> edges(x.begin(), x.begin() + 32);
    x.insert(x.end(), edges.begin(), edges.begin() + 19);  // edges in the tail
    for (const float scale : {1.0f, 0.5f, 1.0f / 127.0f, 3.0f, 1e-30f}) {
        std::vector<std::int8_t> want(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) want[i] = reference_quantize(x[i], scale);
        for (const simd::KernelTable* kt : runnable_tables()) {
            std::vector<std::int8_t> got(x.size(), 55);
            kt->quantize_row(x.data(), x.size(), scale, got.data());
            for (std::size_t i = 0; i < x.size(); ++i) {
                ASSERT_EQ(got[i], want[i])
                    << "x=" << x[i] << " scale=" << scale << " element " << i;
            }
        }
    }
    EXPECT_EQ(reference_quantize(0.5f, 1.0f), 1);
    EXPECT_EQ(reference_quantize(-126.5f, 1.0f), -127);
    EXPECT_EQ(reference_quantize(127.5f, 1.0f), 127);
}

TEST(Quantization, RequantRowBitExactAcrossLevels) {
    // float(acc) * requant + bias (two roundings) followed by the activation
    // row kernels must reproduce the scalar activate() epilogue bitwise for
    // leaky, relu and linear, at every level. Accumulators above 2^24 also
    // exercise the int32 -> float conversion's rounding.
    Rng rng(0x4e9);
    std::vector<std::int32_t> acc = {0, 1, -1, 16777217, -16777217, 2147483647,
                                     -2147483647, 123456789, -98765};
    for (int i = 0; i < 301; ++i) acc.push_back(rng.uniform_int(-400000, 400000));
    for (const Activation act : {Activation::kLeaky, Activation::kRelu, Activation::kLinear}) {
        for (const auto [requant, bias] : {std::array<float, 2>{1.3e-4f, -0.37f},
                                           std::array<float, 2>{0.0f, 0.0f},
                                           std::array<float, 2>{-2.5e-5f, 1.25f}}) {
            std::vector<float> want(acc.size());
            for (std::size_t i = 0; i < acc.size(); ++i) {
                want[i] = activate(act, static_cast<float>(acc[i]) * requant + bias);
            }
            for (const simd::SimdLevel level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
                const simd::ScopedSimdLevel pin(level);
                std::vector<float> got(acc.size(), -1.0f);
                simd::kernels().requant_row(acc.data(), acc.size(), requant, bias, got.data());
                apply_activation(act, got);
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
                    << to_string(act) << " at " << simd::to_string(simd::active_level());
            }
        }
    }
}

TEST(QuantizedNetwork, SnapshotsEveryConvLayer) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    const std::vector<ConvolutionalLayer*> convs = conv_layers(net);
    EXPECT_EQ(std::count_if(convs.begin(), convs.end(),
                            [](const ConvolutionalLayer* c) { return c->quantized() != nullptr; }),
              9);  // DroNet's 9 convolutions
    EXPECT_LT(q.weight_bytes(), q.float_weight_bytes() / 2);
    EXPECT_GT(q.mean_weight_error(), 0.0f);  // const, forward-free diagnostic
}

TEST(QuantizedNetwork, SmallWeightQuantizationError) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    for (const ConvolutionalLayer* conv : conv_layers(net)) {
        const QuantizedConv& qc = *conv->quantized();
        const float err = conv->mean_weight_error();
        // Mean |error| bounded by half an LSB of the per-channel scale range.
        float max_scale = 0;
        for (float s : qc.scales) max_scale = std::max(max_scale, s);
        EXPECT_LE(err, max_scale);
    }
}

TEST(QuantizedNetwork, CalibrationLayerCountMismatchThrows) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Int8Calibration short_calib;
    short_calib.max_abs.assign(3, 1.0f);  // DroNet has 9 convs
    EXPECT_THROW((QuantizedNetwork{net, short_calib}), std::invalid_argument);
    Int8Calibration long_calib;
    long_calib.max_abs.assign(12, 1.0f);
    EXPECT_THROW((QuantizedNetwork{net, long_calib}), std::invalid_argument);
}

TEST(QuantizedNetwork, BatchedForwardBitEqualsBatchOnePerItem) {
    // PR 4's batched serving contract, extended to int8: static calibrated
    // scales + integer accumulation make every batch item bit-identical to
    // its batch-1 forward. (The old path threw on re-batch instead.)
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);

    constexpr int kBatch = 3;
    std::vector<Tensor> singles;
    std::vector<Tensor> expected;
    Rng rng(0xBA7C);
    for (int b = 0; b < kBatch; ++b) {
        Tensor in(net.input_shape());
        rng.fill_uniform(in.span(), 0.0f, 1.0f);
        expected.push_back(net.forward(in));  // copy of the batch-1 output
        singles.push_back(std::move(in));
    }

    net.set_batch(kBatch);
    Tensor batch(net.input_shape());
    const std::int64_t in_chw = singles[0].size();
    for (int b = 0; b < kBatch; ++b) {
        std::memcpy(batch.data() + b * in_chw, singles[static_cast<std::size_t>(b)].data(),
                    static_cast<std::size_t>(in_chw) * sizeof(float));
    }
    const Tensor& out = net.forward(batch);
    const std::int64_t out_chw = expected[0].size();
    ASSERT_EQ(out.size(), kBatch * out_chw);
    for (int b = 0; b < kBatch; ++b) {
        const Tensor& want = expected[static_cast<std::size_t>(b)];
        for (std::int64_t i = 0; i < out_chw; ++i) {
            ASSERT_EQ(out.data()[b * out_chw + i], want.data()[i])
                << "item " << b << " element " << i;
        }
    }
    // A stale batch-1 tensor no longer matches the live geometry.
    EXPECT_THROW((void)net.forward(singles[0]), std::invalid_argument);
    net.set_batch(1);
    EXPECT_NO_THROW((void)net.forward(singles[0]));
}

TEST(QuantizedNetwork, FollowsDegradedResize) {
    // The serving degrade path shrinks the live input; each int8 conv
    // follows its layer's live geometry. fan_in is resize-invariant, so no
    // re-quantization happens on the way.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    Rng rng(5);
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)net.forward(small));
    EXPECT_EQ(net.region()->decode(0).size(), 5u * 2 * 2);  // 5 anchors on the 2x2 grid
    EXPECT_EQ(q.scratch_grows(), 0);  // smaller geometry reuses scratch
    net.resize_input(64, 64);
    Tensor full(net.input_shape());
    rng.fill_uniform(full.span(), 0.0f, 1.0f);
    EXPECT_NO_THROW((void)net.forward(full));
    EXPECT_EQ(net.region()->decode(0).size(), 5u * 4 * 4);
}

TEST(QuantizedNetwork, ForwardIsAllocationFree) {
    // The workspace is sized at quantization (grow-only): forwards at the
    // construction geometry, any batch size, and smaller degraded inputs must
    // never reallocate. Growing the input is the one legitimate grow.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    EXPECT_EQ(q.scratch_grows(), 0);

    Rng rng(17);
    Tensor in(net.input_shape());
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    net.forward(in);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.set_batch(4);  // per-item scratch: batch size never grows it
    Tensor batch(net.input_shape());
    rng.fill_uniform(batch.span(), 0.0f, 1.0f);
    net.forward(batch);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.set_batch(1);
    net.resize_input(32, 32);
    Tensor small(net.input_shape());
    rng.fill_uniform(small.span(), 0.0f, 1.0f);
    net.forward(small);
    EXPECT_EQ(q.scratch_grows(), 0);

    net.resize_input(128, 128);  // larger than construction: must grow
    Tensor big(net.input_shape());
    rng.fill_uniform(big.span(), 0.0f, 1.0f);
    net.forward(big);
    EXPECT_GT(q.scratch_grows(), 0);
}

TEST(QuantizedNetwork, PerLayerConvToleranceAtDroNetStageShapes) {
    // Single-conv networks at the DroNet stage geometries (channels ->
    // filters per stage). With the calibration sample equal to the inference
    // input the activation scale is exact, so the remaining error is pure
    // int8 rounding — a tight per-stage bound.
    struct Stage { int channels, filters; };
    for (const Stage s : {Stage{3, 8}, Stage{8, 16}, Stage{16, 32}, Stage{32, 64}}) {
        NetConfig nc;
        nc.channels = s.channels;
        nc.height = 32;
        nc.width = 32;
        nc.batch = 1;
        nc.seed = 42;
        Network net(nc);
        net.add_conv({.filters = s.filters, .ksize = 3, .stride = 1, .pad = 1});

        Tensor in(net.input_shape());
        Rng rng(static_cast<std::uint64_t>(100 + s.channels));
        rng.fill_uniform(in.span(), -1.0f, 1.0f);

        const Int8Calibration calib = QuantizedNetwork::calibrate(net, std::span(&in, 1));
        Network ref = clone_network(net);
        quantize_network(net, calib);
        const Tensor q_out = net.forward(in);
        const Tensor& f_out = ref.forward(in, /*train=*/false);
        ASSERT_EQ(q_out.shape(), f_out.shape());
        double err = 0, norm = 0;
        for (std::int64_t i = 0; i < f_out.size(); ++i) {
            err += std::fabs(q_out.data()[i] - f_out.data()[i]);
            norm += std::fabs(f_out.data()[i]);
        }
        EXPECT_LT(err / std::max(norm, 1e-6), 0.04)
            << s.channels << "ch -> " << s.filters << "f";
    }
}

void zero_conv_params(Network& net) {
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(static_cast<int>(i)));
        if (conv == nullptr) continue;
        std::fill(conv->weights().v.begin(), conv->weights().v.end(), 0.0f);
        std::fill(conv->biases().v.begin(), conv->biases().v.end(), 0.0f);
    }
}

TEST(QuantizedNetwork, AllZeroWeightsSurviveCalibration) {
    // Fuzz: every conv input downstream of layer 0 is all-zero, so every
    // calibrated range is empty. The zero-range fallback (scale 1.0) must
    // keep construction and inference finite instead of dividing by zero.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    QuantizedNetwork q(net);
    for (const ConvolutionalLayer* conv : conv_layers(net)) {
        const QuantizedConv& qc = *conv->quantized();
        for (float s : qc.scales) EXPECT_FLOAT_EQ(s, 1.0f);
        EXPECT_TRUE(std::isfinite(qc.input_scale));
        EXPECT_GT(qc.input_scale, 0.0f);
    }
    Tensor in(net.input_shape());
    Rng rng(23);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor& out = net.forward(in);
    for (std::int64_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(out.data()[i])) << "element " << i;
    }
}

TEST(QuantizedNetwork, SingleHotChannelWeightsSurviveCalibration) {
    // Fuzz: one filter dominates the dynamic range of every downstream layer
    // (the worst case for per-tensor activation scales). Inference must stay
    // finite and track the float network.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    zero_conv_params(net);
    auto* first = dynamic_cast<ConvolutionalLayer*>(&net.layer(0));
    ASSERT_NE(first, nullptr);
    const int fan_in = static_cast<int>(first->weights().size()) / first->config().filters;
    for (int p = 0; p < fan_in; ++p) first->weights().v[static_cast<std::size_t>(p)] = 10.0f;

    Network ref = clone_network(net);
    QuantizedNetwork q(net);
    Tensor in(net.input_shape());
    Rng rng(29);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    const Tensor q_out = net.forward(in);
    const Tensor& f_out = ref.forward(in, /*train=*/false);
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < f_out.size(); ++i) {
        ASSERT_TRUE(std::isfinite(q_out.data()[i])) << "element " << i;
        err += std::fabs(q_out.data()[i] - f_out.data()[i]);
        norm += std::fabs(f_out.data()[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08);
}

class QuantizedAgreement : public ::testing::TestWithParam<ModelId> {};

TEST_P(QuantizedAgreement, CloseToFloatNetwork) {
    Network net = build_model(GetParam(), {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(9);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);

    Network ref = clone_network(net);
    QuantizedNetwork q(net);
    const Tensor& qout = net.forward(in);
    Tensor q_copy = qout;
    ref.forward(in, /*train=*/false);
    const Tensor& fout = ref.region()->output();

    ASSERT_EQ(q_copy.shape(), fout.shape());
    // Relative agreement: int8 inference stays close to float.
    double err = 0, norm = 0;
    for (std::int64_t i = 0; i < fout.size(); ++i) {
        err += std::fabs(q_copy[i] - fout[i]);
        norm += std::fabs(fout[i]);
    }
    EXPECT_LT(err / std::max(norm, 1.0), 0.08) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, QuantizedAgreement,
                         ::testing::Values(ModelId::kDroNet, ModelId::kSmallYoloV3),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                             return to_string(info.param);
                         });

TEST(QuantizedNetwork, DecodeProducesSameGridOfDetections) {
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    Tensor in(net.input_shape());
    Rng rng(11);
    rng.fill_uniform(in.span(), 0.0f, 1.0f);
    QuantizedNetwork q(net);
    net.forward(in);
    const Detections dets = net.region()->decode(0);
    EXPECT_EQ(dets.size(), 5u * 4 * 4);  // 5 anchors on the 4x4 grid
}

TEST(QuantizedNetwork, TrainingAndRecalibrationThrow) {
    // Int8 convs have no backward, and calibrating an int8 network would
    // record int8 ranges: both are refused instead of running.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    Tensor in(net.input_shape());
    EXPECT_THROW((void)net.forward(in, /*train=*/true), std::logic_error);
    EXPECT_THROW((void)QuantizedNetwork::self_calibrate(net), std::logic_error);
}

TEST(QuantizedNetwork, ForwardFaultSiteFiresOnInt8) {
    // The int8 forward is Network::forward, so it passes the
    // network.forward fault site like a float forward.
    if (!fault::compiled_in()) GTEST_SKIP() << "DRONET_FAULTS is off";
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    QuantizedNetwork q(net);
    Tensor in(net.input_shape());
    const fault::ScopedFaultPlan plan("network.forward:throw");
    EXPECT_THROW((void)net.forward(in), fault::FaultInjected);
}

// ---- quantize-once int8 lowering vs the float-col reference ----------------

struct LoweringCase {
    const char* name;
    int channels, height, width, batch;
    ConvConfig conv;
};

class QuantizedLowering : public ::testing::TestWithParam<LoweringCase> {};

TEST_P(QuantizedLowering, MatchesFloatColReferenceBitwise) {
    // The forward quantizes each conv input once and lowers it with the int8
    // im2col. The reference is the lowering it replaced: float im2col, then
    // quantize every element of the k^2-larger col matrix, then the scalar
    // activate() epilogue. The int8 col matrices must be byte-identical and
    // the layer outputs bitwise equal, item by item.
    const LoweringCase& lc = GetParam();
    NetConfig nc;
    nc.channels = lc.channels;
    nc.height = lc.height;
    nc.width = lc.width;
    nc.batch = lc.batch;
    nc.seed = 7;
    Network net(nc);
    net.add_conv(lc.conv);
    Tensor in(net.input_shape());
    Rng rng(0x10a);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    QuantizedNetwork q(net, QuantizedNetwork::calibrate(net, std::span(&in, 1)));
    const Tensor out = net.forward(in);

    const auto& conv = dynamic_cast<const ConvolutionalLayer&>(net.layer(0));
    const QuantizedConv& qc = *conv.quantized();
    const ConvGeometry geo{lc.channels, lc.height, lc.width, lc.conv.ksize,
                           lc.conv.stride, lc.conv.pad};
    const int rows = geo.col_rows();
    const int cols = geo.col_cols();
    const auto col_size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    const std::int64_t in_chw = in.shape().chw();
    for (int b = 0; b < lc.batch; ++b) {
        const float* in_b = in.data() + b * in_chw;
        std::vector<float> col_f(col_size);
        im2col(in_b, geo, col_f.data());
        std::vector<std::int8_t> col_ref(col_size);
        for (std::size_t i = 0; i < col_size; ++i) {
            col_ref[i] = reference_quantize(col_f[i], qc.input_scale);
        }

        std::vector<std::int8_t> in_q(static_cast<std::size_t>(in_chw));
        quantize_buffer(in_b, in_chw, qc.input_scale, in_q.data());
        std::vector<std::int8_t> col_new(col_size, 99);
        im2col_mt(in_q.data(), geo, col_new.data(), 3);
        ASSERT_EQ(0, std::memcmp(col_new.data(), col_ref.data(), col_size))
            << lc.name << " item " << b;

        const int filters = conv.config().filters;
        std::vector<std::int32_t> acc(static_cast<std::size_t>(filters) * cols);
        gemm_i8(filters, cols, rows, qc.weights.data(), rows, col_ref.data(), cols,
                acc.data(), cols);
        const float* out_b = out.data() + b * out.shape().chw();
        for (int f = 0; f < filters; ++f) {
            for (int j = 0; j < cols; ++j) {
                const float want = activate(
                    conv.config().activation,
                    static_cast<float>(acc[static_cast<std::size_t>(f) * cols + j]) *
                            qc.requant[static_cast<std::size_t>(f)] +
                        conv.biases().v[static_cast<std::size_t>(f)]);
                const float got = out_b[static_cast<std::int64_t>(f) * cols + j];
                ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
                    << lc.name << " item " << b << " filter " << f << " column " << j;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, QuantizedLowering,
    ::testing::Values(
        LoweringCase{"k3_pad1", 5, 24, 24, 1, {.filters = 7, .ksize = 3, .stride = 1, .pad = 1}},
        LoweringCase{"k1", 9, 16, 16, 1,
                     {.filters = 6, .ksize = 1, .stride = 1, .pad = 0,
                      .activation = Activation::kLinear}},
        LoweringCase{"k3_stride2", 4, 33, 33, 1,
                     {.filters = 5, .ksize = 3, .stride = 2, .pad = 1,
                      .activation = Activation::kRelu}},
        LoweringCase{"non_square", 3, 20, 13, 1, {.filters = 9, .ksize = 3, .stride = 1, .pad = 1}},
        LoweringCase{"batch2", 6, 18, 18, 2, {.filters = 8, .ksize = 3, .stride = 1, .pad = 1}}),
    [](const ::testing::TestParamInfo<LoweringCase>& info) { return std::string(info.param.name); });

TEST(CalibrateInt8, PerImagePassesEqualOneBatchPass) {
    // calibrate_int8 runs one batch-1 forward per image; the recorded ranges
    // must equal the former single batch-N pass exactly (elementwise maxima
    // of bit-identical per-item activations), and the network keeps its
    // incoming batch size.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    const DetectionDataset frames = generate_dataset(benchmark_scene_config(64), 3, /*seed=*/41);
    std::vector<Image> images;
    for (std::size_t i = 0; i < frames.size(); ++i) images.push_back(frames.image(i));
    ASSERT_EQ(images[0].width(), 64);
    ASSERT_EQ(images[0].height(), 64);

    const Int8Calibration per_image = calibrate_int8(net, images);
    EXPECT_EQ(net.input_shape().n, 1);

    net.set_batch(static_cast<int>(images.size()));
    Tensor batch(net.input_shape());
    for (std::size_t b = 0; b < images.size(); ++b) {
        images[b].copy_to_batch(batch, static_cast<int>(b));
    }
    const Int8Calibration batched =
        QuantizedNetwork::calibrate(net, std::span<const Tensor>(&batch, 1));
    ASSERT_EQ(per_image.max_abs.size(), batched.max_abs.size());
    for (std::size_t i = 0; i < batched.max_abs.size(); ++i) {
        EXPECT_EQ(per_image.max_abs[i], batched.max_abs[i]) << "conv " << i;
    }
    (void)calibrate_int8(net, images);
    EXPECT_EQ(net.input_shape().n, static_cast<int>(images.size()));
}

// ---- int8 serving tier ------------------------------------------------------

TEST(QuantizedService, MicroBatchedInt8IsDeterministicAcrossReplicas) {
    // The same frame submitted many times through 2 int8 replicas with
    // micro-batching must resolve bit-identically everywhere: replicas share
    // one calibration, and the int8 forward is bit-stable per item at any
    // batch size.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.5f});
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.queue_capacity = 16;
    sc.max_batch = 4;
    sc.int8 = true;
    sc.pipeline.eval.score_threshold = 5e-4f;  // random weights: non-vacuous
    DetectionService service(net, sc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 2, /*seed=*/0x5eed);
    constexpr int kRepeats = 8;
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < kRepeats; ++i) {
        futures.push_back(service.submit(frames.image(0)));
    }
    service.drain();

    Detections want;
    for (int i = 0; i < kRepeats; ++i) {
        const ServeResult r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, ServeStatus::kOk) << "frame " << i;
        if (i == 0) {
            want = r.frame.detections;
            continue;
        }
        const Detections& got = r.frame.detections;
        ASSERT_EQ(got.size(), want.size()) << "frame " << i;
        for (std::size_t d = 0; d < want.size(); ++d) {
            EXPECT_EQ(got[d].box.x, want[d].box.x);
            EXPECT_EQ(got[d].box.y, want[d].box.y);
            EXPECT_EQ(got[d].box.w, want[d].box.w);
            EXPECT_EQ(got[d].box.h, want[d].box.h);
            EXPECT_EQ(got[d].objectness, want[d].objectness);
            EXPECT_EQ(got[d].class_id, want[d].class_id);
        }
    }
    EXPECT_FALSE(want.empty()) << "determinism test is vacuous: no detections";
}

TEST(QuantizedService, Int8ServesThroughDegradeCycle) {
    // int8 + graceful degradation: the quantized scratch was pre-sized at the
    // full geometry, so serving at the degraded size (and recovering) must
    // work and resolve every frame.
    Network net = build_model(ModelId::kDroNet, {.input_size = 128, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.queue_capacity = 32;
    sc.max_batch = 2;
    sc.int8 = true;
    sc.degrade_high_watermark = 4;
    sc.degrade_low_watermark = 1;
    sc.degraded_size = 64;
    DetectionService service(net, sc);

    const DetectionDataset frames =
        generate_dataset(benchmark_scene_config(128), 4, /*seed=*/31);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 24; ++i) {
        futures.push_back(service.submit(frames.image(static_cast<std::size_t>(i) % 4)));
    }
    service.drain();
    for (auto& f : futures) {
        EXPECT_EQ(f.get().status, ServeStatus::kOk);
    }
}

TEST(QuantizedService, ProfileReportsCoverInt8Replicas) {
    // Int8 replicas forward through Network::forward, so their profilers
    // record every layer. Profiling starts after construction, which runs
    // the float calibration forwards.
    Network net = build_model(ModelId::kDroNet, {.input_size = 64, .filter_scale = 0.25f});
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.queue_capacity = 8;
    sc.max_batch = 2;
    sc.int8 = true;
    DetectionService service(net, sc);
    profile::set_profiling(true);
    const DetectionDataset frames = generate_dataset(benchmark_scene_config(64), 4, /*seed=*/7);
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < frames.size(); ++i) futures.push_back(service.submit(frames.image(i)));
    service.drain();
    profile::set_profiling(false);
    for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);

    const std::vector<std::string> reports = service.profile_reports();
    ASSERT_FALSE(reports.empty());
    for (const std::string& report : reports) {
        std::size_t rows = 0;
        for (std::size_t at = report.find("\"index\":"); at != std::string::npos;
             at = report.find("\"index\":", at + 1)) {
            ++rows;
        }
        EXPECT_EQ(rows, net.num_layers()) << report;
    }
}

// ---- accuracy gate ----------------------------------------------------------

TEST(QuantizedNetwork, CheckpointMetricsCloseToFp32) {
    // The headline gate from ISSUE 9: on the shipped checkpoint, calibrated
    // int8 detection metrics must stay within a fixed tolerance of the fp32
    // evaluation (skipped on a fresh clone without weights/). Numbers are
    // recorded in docs/quantization.md.
    auto net = load_pretrained(ModelId::kDroNet);
    if (!net) GTEST_SKIP() << "no DroNet checkpoint in weights/";
    const DetectionDataset test_set = benchmark_test_set(16);
    net->set_batch(1);
    net->resize_input(224, 224);
    const DetectionMetrics fp32 = evaluate_detector(*net, test_set, {});

    std::vector<Image> calib_frames;
    for (std::size_t i = 0; i < test_set.size() && i < 8; ++i) {
        calib_frames.push_back(test_set.image(i));
    }
    quantize_network(*net, calibrate_int8(*net, calib_frames, {}));
    const DetectionMetrics int8 = evaluate_detector(*net, test_set, {});

    // Int8 rounding may move individual scores across thresholds but must not
    // change the operating point materially.
    EXPECT_NEAR(int8.sensitivity(), fp32.sensitivity(), 0.05f);
    EXPECT_NEAR(int8.precision(), fp32.precision(), 0.05f);
    EXPECT_NEAR(int8.avg_iou(), fp32.avg_iou(), 0.05f);
    // And it must still clear the same conservative floors the fp32
    // checkpoint test pins.
    EXPECT_GE(int8.sensitivity(), 0.75f);
    EXPECT_GE(int8.precision(), 0.75f);
    EXPECT_GE(int8.avg_iou(), 0.6f);
}

}  // namespace
}  // namespace dronet
