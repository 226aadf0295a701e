// Post-training INT8 quantization of the convolution path.
//
// Implements the paper's §V future-work item ("reduce bitwidth precisions"):
// per-output-channel symmetric int8 weight quantization plus *calibrated*
// static per-layer activation scales, with int32 accumulation and a fused
// requantize epilogue (one combined multiplier per output channel). Max-pool
// and region layers (negligible compute) stay in float, as does the detection
// decode, so accuracy loss is isolated to the conv arithmetic.
//
// Activation scales are static: a calibration pass runs float forwards over a
// sample set and records each conv layer's input activation range, so no
// frame ever sweeps its data for a range. quantize_network then switches
// every conv layer to int8 (ConvolutionalLayer::quantize), and
// Network::forward — the one forward for both precisions, with its profiler
// rows, fault site and numerics guard — runs each conv by quantizing its
// input tensor once (one simd quantize_row pass) and lowering the int8
// tensor with the int8 im2col. im2col only copies or writes 0, and 0
// quantizes to 0, so that col matrix is byte-identical to quantizing the
// k^2-times-larger float col matrix element by element — and max|col
// matrix| == max|input tensor| makes the recorded input maximum exactly the
// range the GEMM sees. After the int8 GEMM (4-row register tiles), the simd
// requant_row kernel dequantizes and adds the bias, and the activation row
// kernel finishes the epilogue. Geometry follows each layer's live shape
// (set_batch, resize_input), batch items use per-item slices of the
// network's grow-only workspace, and batch-N outputs are bit-identical per
// item to batch-1.
//
// Usage:
//   auto calib = QuantizedNetwork::calibrate(net, samples);  // float passes
//   quantize_network(net, calib);                 // folds BN, int8 convs
//   const Tensor& out = net.forward(input);       // any batch size
//   Detections dets = net.region()->decode(b);
// self_calibrate(net) stands in for `samples` when none are at hand
// (docs/quantization.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/network.hpp"

namespace dronet {

/// Per-conv-layer activation ranges from a calibration pass, in network
/// order. Replicas cloned from one source network can share a single
/// calibration (identical weights imply identical ranges), so a serving tier
/// calibrates once and fans the result out.
struct Int8Calibration {
    std::vector<float> max_abs;  ///< max |input activation| per conv layer

    [[nodiscard]] std::size_t layer_count() const noexcept { return max_abs.size(); }
};

/// Folds batch norm and switches every conv layer of `net` to int8, with
/// `calibration` giving the activation scales (one entry per conv layer, in
/// order, else std::invalid_argument). clone_network of the result is its
/// folded float network: the int8 snapshots are not parameters.
void quantize_network(Network& net, const Int8Calibration& calibration);

/// Deterministic synthetic frames at shape `in`, in [0, 1]: constant 0.5
/// and 1.0, a low-frequency ramp and Rng(0x178c) noise. self_calibrate and
/// the serving reload canary both probe with them.
[[nodiscard]] std::vector<Tensor> probe_frames(const Shape& in);

/// Handle over a quantized network that keeps its calibration and the
/// quantization diagnostics; the benchmark's camera workload constructs it.
/// It has no forward or decode: run net.forward and net.region()->decode.
class QuantizedNetwork {
  public:
    /// quantize_network(net, calibration); `net` must outlive the handle.
    QuantizedNetwork(Network& net, const Int8Calibration& calibration);

    /// Self-calibrating convenience: runs self_calibrate(net) first. Prefer
    /// the two-argument form with representative samples when available.
    explicit QuantizedNetwork(Network& net);

    /// Runs float forwards over `samples` (each shaped net.input_shape())
    /// and records every conv layer's input activation range. Folds batch
    /// norm first so the ranges match what quantized inference will see.
    /// Throws std::logic_error on an already quantized network.
    [[nodiscard]] static Int8Calibration calibrate(Network& net,
                                                   std::span<const Tensor> samples);

    /// calibrate() over probe_frames(net.input_shape()) — reproducible
    /// across replicas and runs.
    [[nodiscard]] static Int8Calibration self_calibrate(Network& net);

    /// The quantized network.
    [[nodiscard]] const Network& source() const noexcept { return net_; }
    [[nodiscard]] const Int8Calibration& calibration() const noexcept {
        return calibration_;
    }

    /// Mean of the conv layers' mean_weight_error — a forward-free, const
    /// diagnostic of quantization quality.
    [[nodiscard]] float mean_weight_error() const;

    /// Bytes of conv weight storage: int8 vs the float network.
    [[nodiscard]] std::size_t weight_bytes() const;
    [[nodiscard]] std::size_t float_weight_bytes() const;

    /// Times the network's workspace has grown since quantization: 0 at
    /// quantization-time-or-smaller geometry (allocation-free serving).
    [[nodiscard]] std::int64_t scratch_grows() const noexcept {
        return net_.workspace_grows() - grows_at_quantize_;
    }

  private:
    Network& net_;
    Int8Calibration calibration_;
    std::int64_t grows_at_quantize_ = 0;
};

}  // namespace dronet
