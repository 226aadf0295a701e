// 2-D convolution layer with optional batch normalization.
//
// Forward lowers to im2col + GEMM, darknet's CPU execution strategy and the
// dominant cost in every model the paper benchmarks. Training support
// (backward + gradients) implements the full batch-norm backward pass.
// A layer quantized by nn/quantize runs the same lowering in int8 instead.
#pragma once

#include <cstdint>
#include <optional>

#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace dronet {

struct ConvConfig {
    int filters = 1;
    int ksize = 3;
    int stride = 1;
    int pad = 0;             ///< pixels of zero padding each side
    bool batch_normalize = false;
    Activation activation = Activation::kLeaky;
};

/// Int8 snapshot of a convolutional layer's (batch-norm folded) weights.
struct QuantizedConv {
    std::vector<std::int8_t> weights; ///< [filters x fan_in], row-major
    std::vector<float> scales;        ///< per-output-channel weight scale
    std::vector<float> requant;       ///< fused epilogue: scales[f] * input_scale
    float input_scale = 1.0f;         ///< static activation scale (calibrated)
};

class ConvolutionalLayer final : public Layer {
  public:
    /// Creates the layer and initializes weights (He init) from `rng`.
    ConvolutionalLayer(const ConvConfig& config, const Shape& input, Rng& rng);

    [[nodiscard]] LayerKind kind() const override { return LayerKind::kConvolutional; }
    [[nodiscard]] std::string describe() const override;
    void setup(const Shape& input) override;
    void size_training_buffers() override;
    void forward(const Tensor& input, Network& net, bool train) override;
    void backward(const Tensor& input, Tensor* input_delta, Network& net) override;
    [[nodiscard]] std::vector<Param*> params() override;
    [[nodiscard]] std::vector<std::vector<float>*> serialized_stats() override;
    [[nodiscard]] std::int64_t flops() const override;
    [[nodiscard]] std::size_t workspace_bytes() const override;
    [[nodiscard]] std::int64_t memory_bytes() const override;

    [[nodiscard]] const ConvConfig& config() const noexcept { return config_; }

    /// Folds batch-norm statistics into weights/biases for inference-only
    /// deployment (ablation #3 in DESIGN.md). After folding the layer
    /// behaves identically in eval mode but skips normalization work.
    void fold_batchnorm();

    [[nodiscard]] Param& weights() noexcept { return weights_; }
    [[nodiscard]] const Param& weights() const noexcept { return weights_; }
    [[nodiscard]] Param& biases() noexcept { return biases_; }
    [[nodiscard]] const Param& biases() const noexcept { return biases_; }
    [[nodiscard]] Param& scales() noexcept { return scales_; }
    [[nodiscard]] std::vector<float>& rolling_mean() noexcept { return rolling_mean_; }
    [[nodiscard]] std::vector<float>& rolling_variance() noexcept { return rolling_variance_; }

    /// Direct (non-im2col) reference forward used by tests and the
    /// im2col-vs-direct ablation bench.
    void forward_direct(const Tensor& input, Tensor& out) const;

    /// Snapshots the (batch-norm folded) weights as int8, `input_max` being
    /// the calibrated max |input|; forward then runs in int8 and refuses to
    /// train, and workspace_bytes() reports the int8 need (quantize_network
    /// refreshes the Network's workspace). The float weights stay.
    void quantize(float input_max);

    /// The int8 snapshot, or null while the layer runs in float.
    [[nodiscard]] const QuantizedConv* quantized() const noexcept {
        return int8_ ? &*int8_ : nullptr;
    }

    /// Mean |dequantized int8 weight - float weight| (0 while float).
    [[nodiscard]] float mean_weight_error() const;

  private:
    void batchnorm_forward(bool train);
    void batchnorm_backward();
    void forward_int8(const Tensor& input, Network& net);
    /// A 1x1/s1/p0 conv's col matrix is its input: no im2col needed.
    [[nodiscard]] bool pointwise() const noexcept {
        return config_.ksize == 1 && config_.stride == 1 && config_.pad == 0;
    }

    ConvConfig config_;
    ConvGeometry geo_;

    Param weights_;
    Param biases_;   ///< beta when batch-normalized, plain bias otherwise
    Param scales_;   ///< gamma (batch-norm only)
    std::vector<float> rolling_mean_;
    std::vector<float> rolling_variance_;

    // Training caches.
    Tensor x_norm_;               ///< normalized pre-scale activations
    std::vector<float> mean_;     ///< batch mean per channel
    std::vector<float> variance_; ///< batch variance per channel
    std::optional<QuantizedConv> int8_;
    static constexpr float kBnEps = 1e-5f;
    static constexpr float kBnMomentum = 0.9f;  ///< rolling-average retention
};

}  // namespace dronet
