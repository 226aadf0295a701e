// Network: an ordered stack of layers plus training state.
//
// Mirrors darknet's `network` struct: owns the layers, a shared im2col
// workspace, the batch counter driving the LR schedule, and the RNG used for
// weight initialization. Networks are built programmatically (model zoo) or
// parsed from darknet-format .cfg text (nn/cfg.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/box.hpp"
#include "nn/conv_layer.hpp"
#include "nn/layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/misc_layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/region_layer.hpp"
#include "nn/route_layer.hpp"
#include "nn/upsample_layer.hpp"
#include "profile/profiler.hpp"
#include "tensor/rng.hpp"

namespace dronet {

/// Hyper-parameters from a cfg's [net] section.
struct NetConfig {
    int width = 416;
    int height = 416;
    int channels = 3;
    int batch = 1;
    float learning_rate = 1e-3f;
    float momentum = 0.9f;
    float decay = 5e-4f;
    int burn_in = 0;
    std::int64_t max_batches = 0;  ///< 0 = unbounded
    std::vector<LrSchedule::Step> lr_steps;
    std::uint64_t seed = 0x5eed;
};

class Network {
  public:
    explicit Network(NetConfig config);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    Network(Network&&) = default;
    Network& operator=(Network&&) = default;

    // ---- construction -----------------------------------------------------
    ConvolutionalLayer& add_conv(const ConvConfig& config);
    MaxPoolLayer& add_maxpool(const MaxPoolConfig& config);
    RegionLayer& add_region(const RegionConfig& config);
    UpsampleLayer& add_upsample(int stride);
    RouteLayer& add_route(std::vector<int> sources);
    AvgPoolLayer& add_avgpool();
    DropoutLayer& add_dropout(float probability);

    // ---- execution ----------------------------------------------------------
    /// Runs all layers; returns the last layer's output. The input shape must
    /// equal input_shape(). `train` also sizes each layer's training buffers
    /// (Layer::size_training_buffers) before it runs.
    const Tensor& forward(const Tensor& input, bool train = false);

    /// Backpropagates from the last layer's delta (set by the region layer's
    /// loss) down to the first layer, accumulating parameter gradients.
    /// Throws std::logic_error unless the last forward was a training forward
    /// (only that sizes the deltas and caches backward reads) at the
    /// current input size.
    void backward();

    /// Applies one SGD step at the current schedule position and advances the
    /// batch counter.
    void update();

    /// forward(train) + backward + update for one mini-batch; returns the
    /// region-layer loss.
    float train_step(const Tensor& input,
                     std::vector<std::vector<GroundTruth>> truths);

    // ---- shape management ---------------------------------------------------
    /// Re-derives every layer's geometry for a new spatial input size; weights
    /// are preserved (the models are fully convolutional, enabling the paper's
    /// 352-608 input-size sweep on one set of weights).
    void resize_input(int width, int height);

    /// Changes the batch dimension (e.g. train with batch 8, infer with 1).
    void set_batch(int batch);

    // ---- inspection ---------------------------------------------------------
    [[nodiscard]] Shape input_shape() const noexcept {
        return Shape{config_.batch, config_.channels, config_.height, config_.width};
    }
    [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
    [[nodiscard]] Layer& layer(int i) { return *layers_.at(static_cast<std::size_t>(i)); }
    [[nodiscard]] const Layer& layer(int i) const {
        return *layers_.at(static_cast<std::size_t>(i));
    }
    /// Last region layer (the detection head), or null if absent.
    [[nodiscard]] RegionLayer* region() noexcept;
    [[nodiscard]] const RegionLayer* region() const noexcept;

    /// Totals per single-image forward.
    [[nodiscard]] std::int64_t total_flops() const;
    [[nodiscard]] std::int64_t total_params() const;
    [[nodiscard]] std::int64_t total_memory_bytes() const;

    /// Multi-line structure table (one describe() line per layer) — the
    /// Fig. 1 reproduction output.
    [[nodiscard]] std::string describe() const;

    /// Folds batch-norm into conv weights across all layers (inference only).
    void fold_batchnorm();

    [[nodiscard]] NetConfig& config() noexcept { return config_; }
    [[nodiscard]] const NetConfig& config() const noexcept { return config_; }
    [[nodiscard]] Rng& rng() noexcept { return rng_; }
    [[nodiscard]] std::int64_t batch_num() const noexcept { return batch_num_; }
    void set_batch_num(std::int64_t n) noexcept { batch_num_ = n; }
    [[nodiscard]] const LrSchedule& schedule() const noexcept { return schedule_; }
    [[nodiscard]] float current_lr() const { return schedule_.at(batch_num_); }

    /// Shared grow-only layer scratch: the largest workspace_bytes() over
    /// all layers, each at its current precision. Layers view it as float
    /// (im2col) or as int8/int32 slices at 64-byte offsets (int8 convs).
    [[nodiscard]] std::byte* workspace() noexcept { return workspace_.get(); }
    /// Grows the workspace to the layers' current need. Shape changes call
    /// it; call it after changing a layer's precision.
    void refresh_workspace();
    /// Times the workspace has grown (including while layers were added).
    [[nodiscard]] std::int64_t workspace_grows() const noexcept { return workspace_grows_; }

    /// Per-layer timing sink, populated by forward() while profiling is
    /// enabled (profile::profiling_enabled()). Null until the first profiled
    /// forward. Read only while the network is quiescent.
    [[nodiscard]] const profile::ForwardProfiler* profiler() const noexcept {
        return profiler_.get();
    }
    [[nodiscard]] profile::ForwardProfiler* profiler() noexcept {
        return profiler_.get();
    }

  private:
    [[nodiscard]] Shape next_input_shape() const;
    template <typename L, typename... Args>
    L& emplace_layer(Args&&... args);

    NetConfig config_;
    LrSchedule schedule_;
    Rng rng_;
    std::vector<std::unique_ptr<Layer>> layers_;
    std::unique_ptr<std::byte[]> workspace_;
    std::size_t workspace_bytes_ = 0;
    std::int64_t workspace_grows_ = 0;
    Tensor input_copy_;  ///< retained for backward()
    bool last_forward_trained_ = false;  ///< backward() is valid
    std::int64_t batch_num_ = 0;
    std::unique_ptr<profile::ForwardProfiler> profiler_;
};

}  // namespace dronet
