// Shared pieces of the benchmark binary: options, the result report, sample
// statistics, the heap-allocation counter, the span recorder behind the
// traced run, seeded input generation and the correctness oracles.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "detect/box.hpp"
#include "eval/metrics.hpp"
#include "nn/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
    return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Everything one invocation reports. `end_to_end` is printed (and emitted
/// as JSON) by the untraced run, `layers` by the traced run. `extra` rows
/// appear only in the human table: metrics that are defined for a subset of
/// the workloads, such as sustained_fps and latency_ms_p99.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t latency_samples = 0;
    std::vector<std::string> violations;
    std::vector<Metric> end_to_end;
    std::vector<Metric> extra;
    std::vector<Metric> layers;

    void check(bool ok, const std::string& what) {
        if (!ok) violations.push_back(what);
    }
};

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (p in [0,100]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

// ---- process counters --------------------------------------------------------

/// Heap allocations made by this process so far (bench.cpp replaces the
/// global operator new to count them).
[[nodiscard]] std::uint64_t allocations();
/// Processor time (user + system) used so far by every thread of this
/// process, exited ones included, in seconds.
[[nodiscard]] double cpu_seconds();
/// Processor time used so far by the calling thread, in seconds.
[[nodiscard]] double thread_cpu_seconds();
/// Processor time used so far by the live threads of another process (from
/// /proc/<pid>/task/*/schedstat), in seconds; 0 if unreadable.
[[nodiscard]] double cpu_seconds_of(int pid);
/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// Peak resident set of another process (VmHWM), in MB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb_of(int pid);

// ---- tracing -----------------------------------------------------------------

/// Benchmark-side spans around calls into the library, kept in memory and
/// written out as Chrome trace-event JSON when the run ends. Disabled (every
/// call a no-op) unless enable() was called.
class Trace {
  public:
    static Trace& instance();

    void enable(std::size_t reserve);
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_acquire);
    }
    /// A fresh span id, for a parent span that is recorded after its
    /// children (a frame's span ends when its result arrives); -1 when
    /// disabled.
    [[nodiscard]] std::int64_t new_id();
    /// Records one span under `id` (a fresh one when -1); a no-op when
    /// disabled. `frame` is the request's id in its workload.
    void span(const char* name, std::int64_t frame, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent = -1, std::int64_t id = -1);
    /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O error.
    bool write(const std::string& path) const;

  private:
    struct Span {
        const char* name;
        std::int64_t id;
        std::int64_t frame;
        std::int64_t parent;
        double start_us;
        double end_us;
        std::uint64_t tid;
    };
    std::atomic<bool> enabled_{false};
    std::atomic<std::int64_t> next_id_{0};
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// ---- inputs ------------------------------------------------------------------

/// The canonical scene configuration for `width` x `height` frames fed to a
/// `net_size` network, with vehicle sizes scaled so that after resizing (or
/// letterboxing) they span the pixel sizes the shipped checkpoint was trained
/// on (benchmark_scene_config at its 192 training size).
[[nodiscard]] dronet::SceneConfig scene_config(int width, int height, int net_size);

/// Seeded camera frames: `clips` independent UavFrameSource streams with
/// `vehicles` moving vehicles, `frames_per_clip` frames each (every 4th
/// rendered frame, so consecutive pool entries differ), clip-major.
[[nodiscard]] dronet::DetectionDataset camera_frames(std::uint64_t seed,
                                                     const dronet::SceneConfig& scene,
                                                     int vehicles, int clips,
                                                     int frames_per_clip);

/// Seeded independent aerial scenes from the scene generator.
[[nodiscard]] dronet::DetectionDataset scene_frames(std::uint64_t seed,
                                                    const dronet::SceneConfig& scene,
                                                    int count);

// ---- correctness -------------------------------------------------------------

/// Bitwise equality of two detection lists (every float compared by bits).
[[nodiscard]] bool same_detections(const dronet::Detections& a, const dronet::Detections& b);

/// The paper's accuracy metrics (match IoU 0.5) of `dets[i]` against the
/// ground truth of frame i, appended to `report.end_to_end`.
void add_accuracy(Report& report, const std::vector<dronet::Detections>& dets,
                  const dronet::DetectionDataset& frames);

/// Appends latency_ms_p50 to the end-to-end metrics, and latency_ms_p95 and
/// (when at least ten samples lie beyond it) latency_ms_p99 to the table rows.
/// The tail percentiles are not gated: on a shared host their run-to-run
/// spread exceeds any bound the benchmark may set.
void add_latency(Report& report, const std::vector<double>& latencies_ms);

/// nn.forward.gflop and nn.forward.mbytes of one batch-1 forward of `net`:
/// FLOPs from the layers' own counts, bytes computed from tensor sizes
/// (activations in + out and conv weights, per Layer::memory_bytes, plus one
/// write and one read of each conv's im2col buffer).
void add_forward_size(Report& report, const dronet::Network& net);

/// Host fingerprint as a one-line JSON object.
[[nodiscard]] std::string fingerprint();

// ---- workloads ---------------------------------------------------------------

Report run_camera(const Options& opts, bool int8);
Report run_serve_open(const Options& opts);
Report run_fleet(const Options& opts);

}  // namespace perfbench
