// Latency/throughput instrumentation for the detection service.
//
// Each completed frame records four stage durations (queue wait, preprocess,
// network forward, postprocess) plus the end-to-end total into log-spaced
// histograms, from which p50/p95/p99 are interpolated. The recorder is
// thread-safe (workers report concurrently); snapshot() returns a plain
// struct and to_json() a single line for the bench harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sync/mutex.hpp"

namespace dronet::serve {

/// Log-spaced latency histogram covering 1 us .. ~107 s (64 buckets, x1.33
/// per step). Records are clamped into the covered range. Not thread-safe on
/// its own; ServeStats serializes access.
class LatencyHistogram {
  public:
    static constexpr int kBuckets = 64;

    void record(double ms) noexcept;
    void merge(const LatencyHistogram& other) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean_ms() const noexcept;
    [[nodiscard]] double max_ms() const noexcept { return max_ms_; }
    /// Interpolated percentile, p in [0,100]. Returns 0 with no samples.
    [[nodiscard]] double percentile(double p) const noexcept;

  private:
    [[nodiscard]] static int bucket_of(double ms) noexcept;
    [[nodiscard]] static double bucket_upper_ms(int bucket) noexcept;

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double total_ms_ = 0;
    double max_ms_ = 0;
};

/// Summary of one pipeline stage, derived from its histogram.
struct StageSummary {
    std::uint64_t count = 0;
    double mean_ms = 0;
    double p50_ms = 0;
    double p95_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
};

/// Stage durations of one served frame, in milliseconds.
struct FrameTimings {
    double queue_wait_ms = 0;
    double preprocess_ms = 0;
    double forward_ms = 0;
    double postprocess_ms = 0;
    [[nodiscard]] double total_ms() const noexcept {
        return queue_wait_ms + preprocess_ms + forward_ms + postprocess_ms;
    }
};

/// Consistent point-in-time view of the service counters and latencies.
struct ServeStatsSnapshot {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;   ///< evicted by kDropOldest
    std::uint64_t rejected = 0;  ///< refused by kReject, closed queue, open breaker, shutdown sweep
    std::uint64_t batches = 0;   ///< forward passes executed by workers
    // Self-healing counters (docs/robustness.md). An accounting invariant the
    // chaos tests assert: submitted == completed + dropped + rejected +
    // failed + deadline_expired once the service is drained.
    std::uint64_t failed = 0;            ///< frames whose forward failed after all retries
    std::uint64_t retries = 0;           ///< transient-fault retry attempts
    std::uint64_t deadline_expired = 0;  ///< frames resolved kTimeout past their deadline
    std::uint64_t worker_restarts = 0;   ///< dead workers respawned by the watchdog
    std::uint64_t degraded_frames = 0;   ///< frames served at the fallback input size
    std::uint64_t degrade_transitions = 0;  ///< full<->degraded mode flips
    std::uint64_t breaker_opens = 0;        ///< circuit-breaker open transitions
    double breaker_open_ms = 0;             ///< cumulative time the breaker was open
    // Model lifecycle (docs/robustness.md, "Model lifecycle"). model_version
    // is a gauge: 1 for the construction-time model, +1 per committed swap
    // (a rollback restores the previous version number).
    std::uint64_t model_version = 0;    ///< version of the live model set
    std::uint64_t reloads = 0;          ///< committed hot swaps
    std::uint64_t reload_failures = 0;  ///< candidates rejected before swap
    std::uint64_t rollbacks = 0;        ///< probation/explicit reversions
    // Live gauges (point-in-time, not counters). DetectionService::stats()
    // fills them; a bare ServeStats::snapshot() leaves them zero. They feed
    // the cluster router's least-loaded dispatch and the fleet-aggregated
    // JSON (docs/serving.md).
    std::uint64_t queue_depth = 0;  ///< frames waiting in the service queue now
    std::uint64_t in_flight = 0;    ///< frames accepted but not yet resolved
    std::uint64_t uptime_ms = 0;    ///< since service construction
    /// Per-batch-size histogram: (size, count) for every size that occurred,
    /// ascending. completed == sum(size * count) once the service is drained.
    std::vector<std::pair<int, std::uint64_t>> batch_sizes;
    double wall_seconds = 0;     ///< first submit -> last completion
    double throughput_fps = 0;   ///< completed / wall_seconds
    StageSummary queue_wait;
    StageSummary preprocess;
    StageSummary forward;
    StageSummary postprocess;
    StageSummary total;

    /// The accounting invariant above; holds once the service is drained.
    [[nodiscard]] bool accounting_ok() const noexcept {
        return submitted == completed + dropped + rejected + failed + deadline_expired;
    }
    /// One-line JSON object (stable key order) for bench harnesses.
    [[nodiscard]] std::string to_json() const;
};

/// Thread-safe recorder shared by all service workers.
class ServeStats {
  public:
    void record_submitted() noexcept;
    void record_rejected() noexcept;
    void record_dropped() noexcept;
    void record_completed(const FrameTimings& timings) noexcept;
    /// Records one worker forward pass covering `size` frames. Sizes beyond
    /// kMaxTrackedBatch are clamped into the last bucket.
    void record_batch(std::size_t size) noexcept;
    // Self-healing events (see ServeStatsSnapshot field docs).
    void record_failed() noexcept;
    void record_retry() noexcept;
    void record_deadline_expired() noexcept;
    void record_worker_restart() noexcept;
    void record_degraded(std::uint64_t frames) noexcept;
    void record_degrade_transition() noexcept;
    void record_breaker_opened() noexcept;
    /// Accumulates one closed open-interval of the circuit breaker.
    void record_breaker_open_ms(double ms) noexcept;
    // Model lifecycle events (see ServeStatsSnapshot field docs).
    void record_reload() noexcept;
    void record_reload_failure() noexcept;
    void record_rollback() noexcept;

    static constexpr std::size_t kMaxTrackedBatch = 64;

    [[nodiscard]] ServeStatsSnapshot snapshot() const;

  private:
    mutable sync::Mutex mu_{"ServeStats::mu"};
    std::uint64_t submitted_ GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ GUARDED_BY(mu_) = 0;
    std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
    std::uint64_t rejected_ GUARDED_BY(mu_) = 0;
    std::uint64_t batches_ GUARDED_BY(mu_) = 0;
    std::uint64_t failed_ GUARDED_BY(mu_) = 0;
    std::uint64_t retries_ GUARDED_BY(mu_) = 0;
    std::uint64_t deadline_expired_ GUARDED_BY(mu_) = 0;
    std::uint64_t worker_restarts_ GUARDED_BY(mu_) = 0;
    std::uint64_t degraded_frames_ GUARDED_BY(mu_) = 0;
    std::uint64_t degrade_transitions_ GUARDED_BY(mu_) = 0;
    std::uint64_t breaker_opens_ GUARDED_BY(mu_) = 0;
    double breaker_open_ms_ GUARDED_BY(mu_) = 0;
    std::uint64_t reloads_ GUARDED_BY(mu_) = 0;
    std::uint64_t reload_failures_ GUARDED_BY(mu_) = 0;
    std::uint64_t rollbacks_ GUARDED_BY(mu_) = 0;
    std::array<std::uint64_t, kMaxTrackedBatch> batch_size_counts_
        GUARDED_BY(mu_){};
    bool clock_started_ GUARDED_BY(mu_) = false;
    double first_submit_s_ GUARDED_BY(mu_) = 0;  ///< steady-clock seconds
    double last_done_s_ GUARDED_BY(mu_) = 0;
    LatencyHistogram queue_wait_ GUARDED_BY(mu_);
    LatencyHistogram preprocess_ GUARDED_BY(mu_);
    LatencyHistogram forward_ GUARDED_BY(mu_);
    LatencyHistogram postprocess_ GUARDED_BY(mu_);
    LatencyHistogram total_ GUARDED_BY(mu_);
};

}  // namespace dronet::serve
