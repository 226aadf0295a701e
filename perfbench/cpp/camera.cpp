// camera_512 and camera_512_int8: one camera stream, closed loop, batch 1,
// DroNet at 512x512 calling detect_image_timed directly with nproc GEMM
// threads — the paper's on-board operating point. The int8 variant runs the
// same frames through a calibrated QuantizedNetwork.
#include <unistd.h>

#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "eval/evaluator.hpp"
#include "models/pretrained.hpp"
#include "platform/platform_model.hpp"
#include "profile/profiler.hpp"
#include "tensor/gemm.hpp"
#include "tensor/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace dronet;

constexpr int kSize = 512;
constexpr int kClips = 4;           // independent scenes
constexpr int kFramesPerClip = 4;   // 16 distinct frames, cycled by the timed loop
constexpr int kVehicles = 10;
constexpr int kCalibrationFrames = 4;
constexpr int kSetupRepeats = 5;
constexpr int kSetupRepeatsInt8 = 3;  // calibration makes each int8 set-up ~0.5 s
constexpr int kWarmupFrames = 2;

/// One loaded detector: the network plus, for int8, its quantized wrapper
/// (which references the network, so it is declared after it).
struct Detector {
    std::unique_ptr<Network> net;
    std::unique_ptr<QuantizedNetwork> int8;

    Detections detect(const Image& frame, const EvalConfig& cfg,
                      DetectStageTimings* timings) {
        return detect_image_timed(*net, frame, cfg, timings, int8.get());
    }
};

Detector load_detector(const DetectionDataset& calibration, bool int8, double* load_ms) {
    const auto t0 = Clock::now();
    std::optional<Network> loaded = load_pretrained(ModelId::kDroNet, kSize);
    if (!loaded) throw std::runtime_error("weights/DroNet.weights not found");
    if (load_ms != nullptr) *load_ms = ms_between(t0, Clock::now());
    Detector d;
    d.net = std::make_unique<Network>(std::move(*loaded));
    if (int8) {
        std::vector<Image> images;
        for (std::size_t i = 0; i < calibration.size(); ++i) images.push_back(calibration.image(i));
        const Int8Calibration calib = calibrate_int8(*d.net, images);
        d.net->set_batch(1);
        d.int8 = std::make_unique<QuantizedNetwork>(*d.net, calib);
    }
    d.net->set_batch(1);
    return d;
}

/// One timed closed-loop phase over the frame pool.
struct Phase {
    std::vector<double> latency_ms;
    std::vector<DetectStageTimings> stages;
    double wall_s = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t boxes = 0;
    std::uint64_t allocations = 0;
    double cpu_s = 0;
    ThreadPoolStats pool_before;
    ThreadPoolStats pool_after;
    [[nodiscard]] std::size_t frames() const { return latency_ms.size(); }
};

Phase run_phase(Detector& det, const DetectionDataset& frames,
                const std::vector<Detections>& oracle, const EvalConfig& cfg,
                double seconds) {
    Phase p;
    p.latency_ms.reserve(1 << 14);
    p.stages.reserve(1 << 14);
    p.pool_before = ThreadPool::instance().stats();
    const std::uint64_t allocs0 = allocations();
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
        const std::size_t idx = i % frames.size();
        DetectStageTimings st;
        const auto t0 = Clock::now();
        const Detections dets = det.detect(frames.image(idx), cfg, &st);
        const auto t1 = Clock::now();
        Trace::instance().span("detect_image_timed", static_cast<std::int64_t>(i), t0, t1);
        p.latency_ms.push_back(ms_between(t0, t1));
        p.stages.push_back(st);
        p.boxes += dets.size();
        if (!same_detections(dets, oracle[idx])) ++p.mismatches;
    }
    p.wall_s = seconds_since(start);
    p.cpu_s = cpu_seconds() - cpu0;
    p.allocations = allocations() - allocs0;
    p.pool_after = ThreadPool::instance().stats();
    return p;
}

double stage_mean(const Phase& p, double DetectStageTimings::*field) {
    std::vector<double> v;
    for (const DetectStageTimings& st : p.stages) v.push_back(st.*field);
    return mean(v);
}

/// Profiler-derived nn.* layer metrics of the traced phase.
void add_profiler_metrics(Report& r, const Network& net, const Phase& traced, bool check_coverage) {
    const profile::ForwardProfiler* prof = net.profiler();
    if (prof == nullptr || prof->forwards() == 0) {
        r.check(false, "profiler recorded no forwards in the traced phase");
        return;
    }
    const auto forwards = static_cast<double>(prof->forwards());
    double conv_ms = 0, conv_flop = 0, max_ms = 0, region_ms = 0;
    for (const profile::LayerStat& l : prof->layers()) {
        if (l.name == "conv") {
            conv_ms += l.total_ms;
            conv_flop += static_cast<double>(l.flops) * static_cast<double>(l.calls);
        } else if (l.name == "max") {
            max_ms += l.total_ms;
        } else if (l.name == "region") {
            region_ms += l.total_ms;
        }
    }
    const double forward_ms = prof->total_forward_ms() / forwards;
    const double conv_gflops = conv_ms > 0 ? conv_flop / (conv_ms * 1e6) : 0;
    double stage_forward_ms = 0;
    for (const DetectStageTimings& st : traced.stages) stage_forward_ms += st.forward_ms;
    const double coverage = stage_forward_ms > 0 ? prof->layer_sum_ms() / stage_forward_ms : 0;
    if (check_coverage) {
        r.check(coverage >= 0.95, "per-layer nn times cover " + std::to_string(coverage) +
                                      " of eval.forward.ms (< 0.95)");
    }
    const PlatformSpec host = calibrate_host_platform();
    r.layers.push_back({"nn.conv.ms", conv_ms / forwards, "ms"});
    r.layers.push_back({"nn.conv.gflops", conv_gflops, "GFLOP/s"});
    r.layers.push_back({"nn.maxpool.ms", max_ms / forwards, "ms"});
    r.layers.push_back({"nn.maxpool.share", forward_ms > 0 ? max_ms / forwards / forward_ms : 0, "ratio"});
    r.layers.push_back({"nn.region.ms", region_ms / forwards, "ms"});
    r.layers.push_back({"nn.coverage", coverage, "ratio"});
    r.layers.push_back({"platform.conv.predicted_gflops", host.effective_gflops, "GFLOP/s"});
    r.layers.push_back({"nn.conv.roofline_frac", conv_gflops / host.effective_gflops, "ratio"});
}

}  // namespace

Report run_camera(const Options& opts, bool int8) {
    Report r;
    const int threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    const SceneConfig scene = scene_config(kSize, kSize, kSize);
    const DetectionDataset frames = camera_frames(opts.seed, scene, kVehicles, kClips, kFramesPerClip);
    const DetectionDataset calibration =
        camera_frames(opts.seed + 0x5eed, scene, kVehicles, kCalibrationFrames, 1);
    const EvalConfig cfg;

    // Serial oracle, outside the timed phase: a separately loaded (and, for
    // int8, separately calibrated) detector on one GEMM thread.
    std::vector<Detections> oracle;
    {
        set_gemm_threads(1);
        Detector ref = load_detector(calibration, int8, nullptr);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            oracle.push_back(ref.detect(frames.image(i), cfg, nullptr));
        }
    }

    // Set-up: load (+ calibrate) + warm-up, repeated; the last one is kept.
    set_gemm_threads(threads);
    std::vector<double> setup_cpu_s, setup_wall_s, load_ms;
    Detector det;
    for (int rep = 0; rep < (int8 ? kSetupRepeatsInt8 : kSetupRepeats); ++rep) {
        det.int8.reset();  // before the network it references
        det.net.reset();
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        double ms = 0;
        det = load_detector(calibration, int8, &ms);
        for (int w = 0; w < kWarmupFrames; ++w) {
            (void)det.detect(frames.image(static_cast<std::size_t>(w)), cfg, nullptr);
        }
        setup_wall_s.push_back(seconds_since(t0));
        setup_cpu_s.push_back(cpu_seconds() - cpu0);
        load_ms.push_back(ms);
    }

    const double timed_s = opts.trace ? opts.seconds / 2 : opts.seconds;
    const Phase timed = run_phase(det, frames, oracle, cfg, timed_s);
    std::vector<const Phase*> phases = {&timed};
    std::optional<Phase> traced;
    if (opts.trace) {
        profile::set_profiling(true);
        Trace::instance().enable(1 << 14);
        traced = run_phase(det, frames, oracle, cfg, opts.seconds / 2);
        profile::set_profiling(false);
        phases.push_back(&*traced);
    }

    for (const Phase* p : phases) {
        r.attempted += p->frames();
        r.check(p->mismatches == 0, std::to_string(p->mismatches) +
                                        " frames differ from the serial oracle");
        r.check(p->pool_after.threads_created == p->pool_before.threads_created,
                "thread pool created threads during the timed phase");
    }
    if (det.int8) {
        r.check(det.int8->scratch_grows() == 0, "int8 scratch buffers grew after construction");
    }

    const auto frames_done = static_cast<double>(timed.frames());
    r.end_to_end.push_back({"cpu_ms_per_frame", timed.cpu_s * 1000.0 / frames_done, "ms"});
    r.end_to_end.push_back({"setup_s", median(setup_cpu_s), "s"});
    r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    r.end_to_end.push_back({"throughput_fps", frames_done / timed.wall_s, "frames/s"});
    add_latency(r, timed.latency_ms);
    r.end_to_end.push_back({"setup_wall_s", median(setup_wall_s), "s"});
    add_accuracy(r, oracle, frames);
    r.extra.push_back({"det_exact_frac", 1.0 - static_cast<double>(timed.mismatches) / frames_done,
                       "ratio"});

    if (opts.trace) {
        r.layers.push_back({"models.load_ms", median(load_ms), "ms"});
        if (!int8) add_profiler_metrics(r, *det.net, *traced, /*check_coverage=*/true);
        add_forward_size(r, *det.net);
        if (det.int8) {
            r.layers.push_back({"nn.int8.forward.ms", stage_mean(timed, &DetectStageTimings::forward_ms), "ms"});
            r.layers.push_back({"nn.int8.scratch_grows", static_cast<double>(det.int8->scratch_grows()), "count"});
        }
        r.layers.push_back({"tensor.pool.tasks_per_frame",
                            static_cast<double>(timed.pool_after.tasks_executed -
                                                timed.pool_before.tasks_executed) / frames_done,
                            "count"});
        r.layers.push_back({"tensor.pool.threads_created",
                            static_cast<double>(timed.pool_after.threads_created -
                                                timed.pool_before.threads_created),
                            "count"});
        r.layers.push_back({"alloc.per_frame", static_cast<double>(timed.allocations) / frames_done, "count"});
        r.layers.push_back({"eval.preprocess.ms", stage_mean(timed, &DetectStageTimings::preprocess_ms), "ms"});
        r.layers.push_back({"eval.forward.ms", stage_mean(timed, &DetectStageTimings::forward_ms), "ms"});
        r.layers.push_back({"eval.postprocess.ms", stage_mean(timed, &DetectStageTimings::postprocess_ms), "ms"});
        r.layers.push_back({"detect.boxes_per_frame", static_cast<double>(timed.boxes) / frames_done, "count"});
        r.layers.push_back({"bench.trace_overhead_ms",
                            median(traced->latency_ms) - median(timed.latency_ms), "ms"});
    }
    return r;
}

}  // namespace perfbench
