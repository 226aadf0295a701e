// Network replication for multi-worker serving.
//
// A Network owns mutable per-forward state (layer activations, the shared
// im2col workspace), so one instance cannot run on two threads at once.
// clone_network() builds an independent replica — same architecture, same
// weights, same batch-norm statistics — by round-tripping the structure
// through the canonical cfg emitter/parser and then copying every parameter
// block. Replicas share nothing, so each serving worker can forward its own
// copy without synchronization.
#pragma once

#include "nn/network.hpp"

namespace dronet {

/// Deep-copies `src`: architecture (via cfg round-trip), every trainable
/// parameter block (values, gradients, momentum), serialized batch-norm
/// statistics, the batch counter and the region layer's `seen` counter.
/// Int8 snapshots are not parameters: the clone of a quantized network is
/// its folded float network, so DetectionService's reference stays float.
/// Throws std::logic_error if the rebuilt structure does not match `src`
/// (which would indicate a cfg emitter/parser bug).
[[nodiscard]] Network clone_network(const Network& src);

}  // namespace dronet
