#include "nn/layer.hpp"

namespace dronet {

std::string to_string(LayerKind kind) {
    switch (kind) {
        case LayerKind::kConvolutional: return "conv";
        case LayerKind::kMaxPool: return "max";
        case LayerKind::kRegion: return "region";
        case LayerKind::kUpsample: return "upsample";
        case LayerKind::kRoute: return "route";
        case LayerKind::kAvgPool: return "avg";
        case LayerKind::kDropout: return "dropout";
    }
    return "?";
}

void Layer::size_training_buffers() { delta_.resize(output_shape_); }

std::int64_t Layer::param_count() const {
    std::int64_t total = 0;
    for (const Param* p : const_cast<Layer*>(this)->params()) {
        total += static_cast<std::int64_t>(p->size());
    }
    return total;
}

std::int64_t Layer::memory_bytes() const {
    // Activations in + out, single image, float32. Parameter traffic is added
    // by the platform model separately (weights are re-read every frame on
    // cache-starved embedded CPUs).
    return static_cast<std::int64_t>(sizeof(float)) *
           (input_shape_.chw() + output_shape_.chw());
}

}  // namespace dronet
