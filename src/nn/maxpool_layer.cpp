#include "nn/maxpool_layer.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "simd/kernels.hpp"

namespace dronet {

MaxPoolLayer::MaxPoolLayer(const MaxPoolConfig& config, const Shape& input)
    : config_(config) {
    if (config.size <= 0 || config.stride <= 0) {
        throw std::invalid_argument("MaxPoolLayer: invalid config");
    }
    pad_ = config.padding >= 0 ? config.padding : config.size - 1;
    setup(input);
}

void MaxPoolLayer::setup(const Shape& input) {
    input_shape_ = input;
    const int out_h = (input.h + pad_ - config_.size) / config_.stride + 1;
    const int out_w = (input.w + pad_ - config_.size) / config_.stride + 1;
    if (out_h <= 0 || out_w <= 0) {
        throw std::invalid_argument("MaxPoolLayer: output collapses to zero for input " +
                                    input.str());
    }
    output_shape_ = Shape{input.n, input.c, out_h, out_w};
    output_.resize(output_shape_);
}

void MaxPoolLayer::size_training_buffers() {
    Layer::size_training_buffers();
    // Grow-only: a training forward writes every element of argmax_ before
    // backward() reads it, so batch-size toggling never needs a realloc or
    // zero-fill.
    const auto needed = static_cast<std::size_t>(output_shape_.size());
    if (argmax_.size() < needed) argmax_.resize(needed, 0);
}

std::string MaxPoolLayer::describe() const {
    std::ostringstream os;
    os << "max " << config_.size << "x" << config_.size << "/" << config_.stride << "  "
       << input_shape_.w << "x" << input_shape_.h << "x" << input_shape_.c << " -> "
       << output_shape_.w << "x" << output_shape_.h << "x" << output_shape_.c;
    return os.str();
}

std::int64_t MaxPoolLayer::flops() const {
    return output_shape_.chw() * config_.size * config_.size;
}

void MaxPoolLayer::forward(const Tensor& input, Network&, bool train) {
    if (input.shape() != input_shape_) {
        throw std::invalid_argument("MaxPoolLayer::forward: shape mismatch");
    }
    const int in_h = input_shape_.h;
    const int in_w = input_shape_.w;
    const int out_h = output_shape_.h;
    const int out_w = output_shape_.w;
    const int offset = -pad_ / 2;
    // At inference a 2x2/s2 pool with no leading pad runs its full windows
    // (rows below in_h / 2, columns below in_w / 2) through the row kernel,
    // which folds the taps in the loop's order with its comparison; the
    // trailing odd row/column and every other geometry take the loop.
    const bool rows_kernel =
        !train && config_.size == 2 && config_.stride == 2 && offset == 0;
    const int kernel_h = rows_kernel ? std::min(out_h, in_h / 2) : 0;
    const int kernel_w = rows_kernel ? std::min(out_w, in_w / 2) : 0;
    const auto pool_row = simd::kernels().maxpool2x2_row;
    const std::int64_t in_hw = input_shape_.hw();
    const std::int64_t out_hw = output_shape_.hw();
    for (std::int64_t plane = 0; plane < std::int64_t{input_shape_.n} * input_shape_.c;
         ++plane) {
        const std::int64_t in_base = plane * in_hw;
        const float* in_plane = input.data() + in_base;
        for (int oy = 0; oy < out_h; ++oy) {
            const std::int64_t row_base = plane * out_hw + std::int64_t{oy} * out_w;
            float* out_row = output_.data() + row_base;
            int ox = 0;
            if (oy < kernel_h) {
                pool_row(in_plane + std::int64_t{2 * oy} * in_w,
                         in_plane + std::int64_t{2 * oy + 1} * in_w,
                         static_cast<std::size_t>(kernel_w), out_row);
                ox = kernel_w;
            }
            for (; ox < out_w; ++ox) {
                float best = -std::numeric_limits<float>::max();
                std::int64_t best_idx = -1;
                for (int ky = 0; ky < config_.size; ++ky) {
                    const int iy = offset + oy * config_.stride + ky;
                    if (iy < 0 || iy >= in_h) continue;
                    for (int kx = 0; kx < config_.size; ++kx) {
                        const int ix = offset + ox * config_.stride + kx;
                        if (ix < 0 || ix >= in_w) continue;
                        const std::int64_t idx = in_base + std::int64_t{iy} * in_w + ix;
                        if (input[idx] > best) {
                            best = input[idx];
                            best_idx = idx;
                        }
                    }
                }
                out_row[ox] = best;
                if (train) argmax_[static_cast<std::size_t>(row_base + ox)] = best_idx;
            }
        }
    }
}

void MaxPoolLayer::backward(const Tensor&, Tensor* input_delta, Network&) {
    if (input_delta == nullptr) return;
    for (std::int64_t i = 0; i < output_shape_.size(); ++i) {
        const std::int64_t src = argmax_[static_cast<std::size_t>(i)];
        if (src >= 0) (*input_delta)[src] += delta_[i];
    }
}

}  // namespace dronet
