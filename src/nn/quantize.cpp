#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/rng.hpp"

namespace dronet {
namespace {

[[nodiscard]] float max_abs_of(std::span<const float> data) noexcept {
    float mx = 0.0f;
    for (const float v : data) mx = std::max(mx, std::fabs(v));
    return mx;
}

/// The conv layers of `net`, in network order.
[[nodiscard]] std::vector<ConvolutionalLayer*> convs_of(Network& net) {
    std::vector<ConvolutionalLayer*> convs;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        if (auto* conv = dynamic_cast<ConvolutionalLayer*>(&net.layer(static_cast<int>(i)))) {
            convs.push_back(conv);
        }
    }
    return convs;
}

}  // namespace

std::vector<Tensor> probe_frames(const Shape& in) {
    std::vector<Tensor> frames;
    // Constant frames bound the aligned-filter response, the ramp adds
    // low-frequency structure, seeded noise adds texture — a deterministic
    // stand-in for representative [0,1] imagery (docs/quantization.md).
    frames.emplace_back(in);
    frames.back().fill(0.5f);
    frames.emplace_back(in);
    frames.back().fill(1.0f);
    Tensor ramp(in);
    for (int n = 0; n < in.n; ++n) {
        for (int c = 0; c < in.c; ++c) {
            for (int h = 0; h < in.h; ++h) {
                for (int w = 0; w < in.w; ++w) {
                    const float y = in.h > 1 ? static_cast<float>(h) / static_cast<float>(in.h - 1) : 0.0f;
                    const float x = in.w > 1 ? static_cast<float>(w) / static_cast<float>(in.w - 1) : 0.0f;
                    ramp[ramp.index(n, c, h, w)] = 0.5f * (x + y);
                }
            }
        }
    }
    frames.push_back(std::move(ramp));
    Tensor noise(in);
    Rng rng(0x178cu);
    rng.fill_uniform(noise.span(), 0.0f, 1.0f);
    frames.push_back(std::move(noise));
    return frames;
}

Int8Calibration QuantizedNetwork::calibrate(Network& net,
                                            std::span<const Tensor> samples) {
    if (samples.empty()) {
        throw std::invalid_argument("QuantizedNetwork::calibrate: no samples");
    }
    const std::vector<ConvolutionalLayer*> convs = convs_of(net);
    if (std::any_of(convs.begin(), convs.end(),
                    [](const ConvolutionalLayer* c) { return c->quantized() != nullptr; })) {
        throw std::logic_error("QuantizedNetwork::calibrate: the network is already int8");
    }
    // Fold first: quantized inference runs on the folded network, so the
    // recorded ranges must come from folded float forwards.
    net.fold_batchnorm();
    Int8Calibration calib{std::vector<float>(convs.size(), 0.0f)};
    for (const Tensor& sample : samples) {
        if (sample.shape() != net.input_shape()) {
            throw std::invalid_argument(
                "QuantizedNetwork::calibrate: sample shape mismatch");
        }
        net.forward(sample, /*train=*/false);
        std::size_t slot = 0;
        for (std::size_t i = 0; i < net.num_layers(); ++i) {
            if (net.layer(static_cast<int>(i)).kind() != LayerKind::kConvolutional) {
                continue;
            }
            // The conv's input is the previous layer's output (the network
            // input for layer 0). im2col only copies or zero-pads, so this
            // max is exactly the col matrix's max.
            const Tensor& in = i == 0 ? sample : net.layer(static_cast<int>(i) - 1).output();
            calib.max_abs[slot] = std::max(calib.max_abs[slot], max_abs_of(in.span()));
            ++slot;
        }
    }
    return calib;
}

Int8Calibration QuantizedNetwork::self_calibrate(Network& net) {
    return calibrate(net, probe_frames(net.input_shape()));
}

void quantize_network(Network& net, const Int8Calibration& calibration) {
    net.fold_batchnorm();
    const std::vector<ConvolutionalLayer*> convs = convs_of(net);
    if (calibration.layer_count() < convs.size()) {
        throw std::invalid_argument(
            "quantize_network: calibration covers fewer conv layers than the network");
    }
    if (calibration.layer_count() > convs.size()) {
        throw std::invalid_argument(
            "quantize_network: calibration covers more conv layers than the network");
    }
    for (std::size_t i = 0; i < convs.size(); ++i) convs[i]->quantize(calibration.max_abs[i]);
    net.refresh_workspace();
}

QuantizedNetwork::QuantizedNetwork(Network& net, const Int8Calibration& calibration)
    : net_(net), calibration_(calibration) {
    quantize_network(net_, calibration_);
    grows_at_quantize_ = net_.workspace_grows();
}

QuantizedNetwork::QuantizedNetwork(Network& net)
    : QuantizedNetwork(net, self_calibrate(net)) {}

float QuantizedNetwork::mean_weight_error() const {
    const std::vector<ConvolutionalLayer*> convs = convs_of(net_);
    if (convs.empty()) return 0.0f;
    double total = 0;
    for (const ConvolutionalLayer* conv : convs) total += conv->mean_weight_error();
    return static_cast<float>(total / static_cast<double>(convs.size()));
}

std::size_t QuantizedNetwork::weight_bytes() const {
    std::size_t total = 0;
    for (const ConvolutionalLayer* conv : convs_of(net_)) {
        const QuantizedConv& q = *conv->quantized();
        total += q.weights.size() * sizeof(std::int8_t) +
                 (q.scales.size() + q.requant.size() + conv->biases().size()) * sizeof(float);
    }
    return total;
}

std::size_t QuantizedNetwork::float_weight_bytes() const {
    std::size_t total = 0;
    for (const ConvolutionalLayer* conv : convs_of(net_)) {
        total += (conv->weights().size() + conv->biases().size()) * sizeof(float);
    }
    return total;
}

}  // namespace dronet
