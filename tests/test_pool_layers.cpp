// MaxPool, Upsample and Route layers: geometry, values, backward routing, and
// the 2x2/s2 max-pool row kernel's bit-exactness against the generic loop at
// every SIMD level (this file carries the simd-kernels ctest label).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "nn/cfg.hpp"
#include "nn/network.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/rng.hpp"

namespace dronet {
namespace {

NetConfig cfg(int c, int h, int w, int batch = 1) {
    NetConfig nc;
    nc.channels = c;
    nc.height = h;
    nc.width = w;
    nc.batch = batch;
    return nc;
}

TEST(MaxPool, HalvesWithStride2) {
    Network net(cfg(2, 8, 8));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    EXPECT_EQ(pool.output_shape(), (Shape{1, 2, 4, 4}));
}

TEST(MaxPool, Stride1KeepsSize) {
    // darknet's tiny-yolo trick: size 2, stride 1, default padding keeps HxW.
    Network net(cfg(2, 13, 13));
    auto& pool = net.add_maxpool({.size = 2, .stride = 1});
    EXPECT_EQ(pool.output_shape(), (Shape{1, 2, 13, 13}));
}

TEST(MaxPool, PicksMaximum) {
    Network net(cfg(1, 4, 4));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
    net.forward(in);
    EXPECT_FLOAT_EQ(pool.output()[0], 5.0f);
    EXPECT_FLOAT_EQ(pool.output()[1], 7.0f);
    EXPECT_FLOAT_EQ(pool.output()[2], 13.0f);
    EXPECT_FLOAT_EQ(pool.output()[3], 15.0f);
}

TEST(MaxPool, NegativeInputsHandled) {
    Network net(cfg(1, 2, 2));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 2, 2);
    in[0] = -5;
    in[1] = -3;
    in[2] = -8;
    in[3] = -9;
    net.forward(in);
    EXPECT_FLOAT_EQ(pool.output()[0], -3.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
    Network net(cfg(1, 4, 4));
    auto& pool = net.add_maxpool({.size = 2, .stride = 2});
    Tensor in(1, 1, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
    net.forward(in, /*train=*/true);
    pool.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    pool.backward(in, &in_delta, net);
    // Each window's max (indices 5,7,13,15) receives the gradient.
    EXPECT_FLOAT_EQ(in_delta[5], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[7], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[13], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[15], 1.0f);
    EXPECT_FLOAT_EQ(in_delta[0], 0.0f);
}

// Values the 2x2/s2 row kernel must fold exactly like the generic loop's
// `if (x > best) best = x` from -FLT_MAX: NaN never wins, -0.0 never
// displaces an earlier +0.0 (nor +0.0 an earlier -0.0), -inf loses to
// -FLT_MAX, +inf wins.
std::vector<float> special_values(Rng& rng, std::size_t n) {
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -FLT_MAX,
                              FLT_MAX,
                              std::numeric_limits<float>::denorm_min(),
                              -1.5f};
    std::vector<float> pick(n), v(n);
    rng.fill_uniform(pick, 0.0f, 2.0f * std::size(specials));
    rng.fill_uniform(v, -3.0f, 3.0f);
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(pick[i]);
        if (s < std::size(specials)) v[i] = specials[s];  // about half specials
    }
    return v;
}

bool bitwise_equal(const float* a, const float* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// The kernel entry itself, against the generic loop's fold, at both levels:
// vector bodies and scalar tails (out_w straddling the 8-lane width).
TEST(MaxPool, RowKernelBitwiseEqualToReferenceAtEveryLevel) {
    std::vector<const simd::KernelTable*> tables = {simd::scalar_kernel_table()};
    if (simd::cpu_supports_avx2()) tables.push_back(simd::avx2_kernel_table());
    Rng rng(71);
    for (const std::size_t out_w : {1u, 7u, 8u, 9u, 16u, 23u, 64u}) {
        const std::vector<float> r0 = special_values(rng, 2 * out_w);
        const std::vector<float> r1 = special_values(rng, 2 * out_w);
        std::vector<float> ref(out_w);
        for (std::size_t x = 0; x < out_w; ++x) {
            float best = -FLT_MAX;
            for (const float tap : {r0[2 * x], r0[2 * x + 1], r1[2 * x], r1[2 * x + 1]}) {
                if (tap > best) best = tap;
            }
            ref[x] = best;
        }
        for (const simd::KernelTable* kt : tables) {
            std::vector<float> got(out_w, 42.0f);
            kt->maxpool2x2_row(r0.data(), r1.data(), out_w, got.data());
            EXPECT_TRUE(bitwise_equal(ref.data(), got.data(), out_w))
                << "out_w=" << out_w << (kt == tables.front() ? " scalar" : " avx2");
        }
    }
}

// Inference runs the 2x2/s2 interior through the row kernel; a training
// forward runs the generic loop everywhere. Both must write the same bits at
// every level, on odd and non-square planes (trailing row/column windows),
// batch > 1, and with specials in the input.
TEST(MaxPool, InferenceBitwiseEqualToTrainingLoopAtEveryLevel) {
    std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
    if (simd::cpu_supports_avx2()) levels.push_back(simd::SimdLevel::kAvx2);
    const Shape shapes[] = {{1, 1, 2, 2}, {1, 3, 7, 10}, {2, 2, 9, 9},
                            {1, 1, 6, 37}, {1, 2, 33, 18}, {1, 1, 1, 5}};
    Rng rng(73);
    for (const Shape& s : shapes) {
        Network net(cfg(s.c, s.h, s.w, s.n));
        auto& pool = net.add_maxpool({.size = 2, .stride = 2});
        Tensor in(s);
        const std::vector<float> v = special_values(rng, static_cast<std::size_t>(s.size()));
        std::copy(v.begin(), v.end(), in.data());
        for (const simd::SimdLevel level : levels) {
            const simd::ScopedSimdLevel pin(level);
            net.forward(in, /*train=*/true);
            const Tensor loop = pool.output();
            net.forward(in, /*train=*/false);
            ASSERT_EQ(loop.shape(), pool.output().shape());
            EXPECT_TRUE(bitwise_equal(loop.data(), pool.output().data(),
                                      static_cast<std::size_t>(loop.size())))
                << s.str() << " at " << simd::to_string(level);
        }
    }
}

TEST(MaxPool, RejectsBadConfig) {
    Network net(cfg(1, 4, 4));
    EXPECT_THROW(net.add_maxpool({.size = 0, .stride = 2}), std::invalid_argument);
}

TEST(Upsample, DoublesSpatial) {
    Network net(cfg(2, 3, 3));
    auto& up = net.add_upsample(2);
    EXPECT_EQ(up.output_shape(), (Shape{1, 2, 6, 6}));
    Tensor in(1, 2, 3, 3);
    in[in.index(0, 1, 1, 2)] = 4.0f;
    net.forward(in);
    EXPECT_FLOAT_EQ(up.output()[up.output().index(0, 1, 2, 4)], 4.0f);
    EXPECT_FLOAT_EQ(up.output()[up.output().index(0, 1, 3, 5)], 4.0f);
}

TEST(Upsample, BackwardSumsWindow) {
    Network net(cfg(1, 2, 2));
    auto& up = net.add_upsample(2);
    Tensor in(1, 1, 2, 2);
    net.forward(in, /*train=*/true);
    up.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    up.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(in_delta[i], 4.0f);
}

TEST(Route, ConcatenatesChannels) {
    Network net(cfg(3, 6, 6));
    net.add_conv({.filters = 4, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    auto& route = net.add_route({0, 1});
    EXPECT_EQ(route.output_shape(), (Shape{1, 6, 6, 6}));
    Tensor in(net.input_shape());
    Rng rng(3);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    net.forward(in);
    // First 4 channels must equal layer 0's output, next 2 layer 1's.
    const Tensor& a = net.layer(0).output();
    const Tensor& b = net.layer(1).output();
    for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(route.output()[i], a[i]);
    for (std::int64_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(route.output()[a.size() + i], b[i]);
    }
}

TEST(Route, BackwardScattersToSources) {
    Network net(cfg(3, 4, 4));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0,
                  .activation = Activation::kLinear});
    auto& route = net.add_route({0});
    Tensor in(net.input_shape());
    net.forward(in, /*train=*/true);
    route.delta().fill(2.0f);
    net.layer(0).delta().zero();
    route.backward(net.layer(0).output(), &net.layer(0).delta(), net);
    for (std::int64_t i = 0; i < net.layer(0).delta().size(); ++i) {
        EXPECT_FLOAT_EQ(net.layer(0).delta()[i], 2.0f);
    }
}

TEST(Route, RejectsBadSources) {
    Network net(cfg(3, 4, 4));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    EXPECT_THROW(net.add_route({5}), std::invalid_argument);
    EXPECT_THROW(net.add_route({}), std::invalid_argument);
}

TEST(Route, RejectsMismatchedSpatialShapes) {
    Network net(cfg(3, 8, 8));
    net.add_conv({.filters = 2, .ksize = 1, .stride = 1, .pad = 0});
    net.add_maxpool({.size = 2, .stride = 2});
    EXPECT_THROW(net.add_route({0, 1}), std::invalid_argument);
}


TEST(AvgPool, GlobalAverage) {
    Network net(cfg(2, 4, 4));
    auto& avg = net.add_avgpool();
    EXPECT_EQ(avg.output_shape(), (Shape{1, 2, 1, 1}));
    Tensor in(1, 2, 4, 4);
    for (std::int64_t i = 0; i < 16; ++i) in[i] = 2.0f;          // channel 0
    for (std::int64_t i = 16; i < 32; ++i) in[i] = static_cast<float>(i - 16);  // 0..15
    net.forward(in);
    EXPECT_FLOAT_EQ(avg.output()[0], 2.0f);
    EXPECT_FLOAT_EQ(avg.output()[1], 7.5f);
}

TEST(AvgPool, BackwardSpreadsEvenly) {
    Network net(cfg(1, 2, 2));
    auto& avg = net.add_avgpool();
    Tensor in(1, 1, 2, 2);
    net.forward(in, /*train=*/true);
    avg.delta()[0] = 4.0f;
    Tensor in_delta(in.shape());
    avg.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(in_delta[i], 1.0f);
}

TEST(Dropout, IdentityAtInference) {
    Network net(cfg(2, 3, 3));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 2, 3, 3);
    Rng rng(4);
    rng.fill_uniform(in.span(), -1.0f, 1.0f);
    net.forward(in, /*train=*/false);
    for (std::int64_t i = 0; i < in.size(); ++i) EXPECT_EQ(drop.output()[i], in[i]);
}

TEST(Dropout, TrainZerosSomeAndScalesRest) {
    Network net(cfg(1, 16, 16));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 1, 16, 16);
    in.fill(1.0f);
    net.forward(in, /*train=*/true);
    int zeros = 0, scaled = 0;
    for (std::int64_t i = 0; i < in.size(); ++i) {
        if (drop.output()[i] == 0.0f) ++zeros;
        else if (std::fabs(drop.output()[i] - 2.0f) < 1e-6f) ++scaled;
    }
    EXPECT_EQ(zeros + scaled, 256);
    EXPECT_GT(zeros, 64);   // ~128 expected
    EXPECT_GT(scaled, 64);
}

TEST(Dropout, BackwardUsesSameMask) {
    Network net(cfg(1, 8, 8));
    auto& drop = net.add_dropout(0.5f);
    Tensor in(1, 1, 8, 8);
    in.fill(1.0f);
    net.forward(in, /*train=*/true);
    drop.delta().fill(1.0f);
    Tensor in_delta(in.shape());
    drop.backward(in, &in_delta, net);
    for (std::int64_t i = 0; i < in.size(); ++i) {
        // Gradient passes exactly where the activation passed.
        EXPECT_FLOAT_EQ(in_delta[i], drop.output()[i]);
    }
}

TEST(Dropout, RejectsBadProbability) {
    Network net(cfg(1, 4, 4));
    EXPECT_THROW(net.add_dropout(1.0f), std::invalid_argument);
    EXPECT_THROW(net.add_dropout(-0.1f), std::invalid_argument);
}

TEST(MiscLayers, CfgRoundTrip) {
    Network net = parse_cfg(
        "[net]\nwidth=8\nheight=8\nchannels=3\n"
        "[convolutional]\nfilters=2\nsize=1\nstride=1\nactivation=linear\n"
        "[dropout]\nprobability=0.25\n[avgpool]\n");
    EXPECT_EQ(net.layer(1).kind(), LayerKind::kDropout);
    EXPECT_EQ(net.layer(2).kind(), LayerKind::kAvgPool);
    EXPECT_EQ(net.layer(2).output_shape(), (Shape{1, 2, 1, 1}));
    const std::string emitted = network_to_cfg(net);
    EXPECT_NE(emitted.find("[dropout]"), std::string::npos);
    EXPECT_NE(emitted.find("probability=0.25"), std::string::npos);
    EXPECT_NE(emitted.find("[avgpool]"), std::string::npos);
    Network again = parse_cfg(emitted);
    EXPECT_EQ(network_to_cfg(again), emitted);
}

}  // namespace
}  // namespace dronet
