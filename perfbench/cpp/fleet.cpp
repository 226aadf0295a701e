// fleet_96: closed loop across a process boundary. 2 client threads, each
// keeping 2 requests in flight, drive a Router over 2 spawned serve_worker
// processes (1 service thread, 1 GEMM thread each) with 96x96 frames; every
// 16th request of a client also polls fleet stats, so control traffic runs
// beside the detect traffic. The forward is ~2 ms while each request carries
// ~110 KB of fp32 pixels, so the wire protocol, socket I/O and router
// dispatch dominate.
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/protocol.hpp"
#include "cluster/router.hpp"
#include "eval/evaluator.hpp"
#include "models/pretrained.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {
namespace {

using namespace dronet;
using serve::ServeResult;
using serve::ServeStatus;

constexpr int kSize = 96;
constexpr int kPoolFrames = 64;
constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr std::size_t kClientInflight = 2;
constexpr int kStatsEvery = 16;
constexpr int kSetupRepeats = 5;
constexpr int kWarmupPerWorker = 2;
constexpr int kCodecReps = 8;  // encode/decode timings per pool frame
constexpr auto kHardTimeout = std::chrono::seconds(30);

struct Sample {
    double latency_ms = 0;
    double unattributed_ms = 0;  ///< client latency minus the worker's stage sum
    serve::FrameTimings timings;
};

struct Phase {
    std::vector<Sample> samples;  ///< OK requests
    std::uint64_t attempted = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t boxes = 0;
    std::uint64_t allocations = 0;
    double wall_s = 0;
    cluster::FleetStats before;
    cluster::FleetStats after;
};

/// One closed-loop client: submits from its own slice of the pool and keeps
/// kClientInflight requests outstanding, settling the oldest first.
void client_loop(cluster::Router& router, int client, const DetectionDataset& frames,
                 const std::vector<Detections>& oracle, Clock::time_point end,
                 Phase& out, std::mutex& out_mu) {
    struct Pending {
        std::future<ServeResult> future;
        Clock::time_point submitted;
        std::size_t pool_index;
        std::int64_t id;
        std::int64_t span_id;  ///< the request span, parent of its submit span
    };
    std::vector<Sample> samples;
    samples.reserve(1 << 14);
    std::uint64_t attempted = 0, mismatches = 0, boxes = 0;
    std::deque<Pending> inflight;
    const auto settle = [&] {
        Pending p = std::move(inflight.front());
        inflight.pop_front();
        if (p.future.wait_for(kHardTimeout) != std::future_status::ready) {
            throw std::runtime_error("fleet future unresolved after the hard timeout");
        }
        const ServeResult r = p.future.get();
        const auto done = Clock::now();
        Trace::instance().span("request", p.id, p.submitted, done, -1, p.span_id);
        if (r.status != ServeStatus::kOk) return;
        const double latency = ms_between(p.submitted, done);
        samples.push_back({latency, latency - r.timings.total_ms(), r.timings});
        boxes += r.frame.detections.size();
        if (!same_detections(r.frame.detections, oracle[p.pool_index])) ++mismatches;
    };
    const auto client_id = static_cast<std::uint64_t>(client) + 1;
    for (std::int64_t k = 0; Clock::now() < end; ++k) {
        if ((k + 1) % kStatsEvery == 0) {
            const auto t0 = Clock::now();
            (void)router.fleet_stats(/*timeout_ms=*/1000);
            Trace::instance().span("Router::fleet_stats", -1, t0, Clock::now());
        }
        const std::size_t idx =
            (static_cast<std::size_t>(client) * 7 + static_cast<std::size_t>(k)) % frames.size();
        Image frame = frames.image(idx);
        const std::int64_t id = k * kClients + client;
        const auto t0 = Clock::now();
        std::future<ServeResult> f = router.submit(client_id, std::move(frame));
        const std::int64_t request_span = Trace::instance().new_id();
        Trace::instance().span("Router::submit", id, t0, Clock::now(), request_span);
        inflight.push_back({std::move(f), t0, idx, id, request_span});
        ++attempted;
        while (inflight.size() >= kClientInflight) settle();
    }
    while (!inflight.empty()) settle();

    std::lock_guard lock(out_mu);
    out.samples.insert(out.samples.end(), samples.begin(), samples.end());
    out.attempted += attempted;
    out.mismatches += mismatches;
    out.boxes += boxes;
}

Phase run_phase(cluster::Router& router, const DetectionDataset& frames,
                const std::vector<Detections>& oracle, double seconds, Report& report) {
    Phase p;
    p.samples.reserve(1 << 15);
    p.before = router.fleet_stats();
    std::mutex out_mu;
    std::vector<std::exception_ptr> errors(kClients);
    const std::uint64_t allocs0 = allocations();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    {
        std::vector<std::jthread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    client_loop(router, c, frames, oracle, end, p, out_mu);
                } catch (...) {
                    errors[static_cast<std::size_t>(c)] = std::current_exception();
                }
            });
        }
    }
    p.wall_s = seconds_since(start);
    p.allocations = allocations() - allocs0;
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    router.drain();
    p.after = router.fleet_stats();

    const auto d = [&](std::uint64_t cluster::FleetStats::*f) { return p.after.*f - p.before.*f; };
    using F = cluster::FleetStats;
    report.check(p.after.accounting_ok(), "FleetStats::accounting_ok() is false");
    report.check(d(&F::submitted) == d(&F::ok) + d(&F::dropped) + d(&F::rejected) +
                                         d(&F::timeout) + d(&F::failed) + d(&F::shutdown),
                 "FleetStats accounting over the timed phase does not balance");
    report.check(d(&F::submitted) == p.attempted && d(&F::ok) == p.samples.size(),
                 "FleetStats deltas disagree with the futures the clients resolved");
    report.check(p.mismatches == 0,
                 std::to_string(p.mismatches) + " requests differ from the serial oracle");
    return p;
}

std::unique_ptr<cluster::Router> start_fleet(const DetectionDataset& frames) {
    cluster::RouterConfig rc;
    rc.worker_argv = {PERFBENCH_WORKER_PATH, "--workers", "1", "--size", std::to_string(kSize),
                      "--gemm-threads", "1"};
    rc.workers = kWorkers;
    auto router = std::make_unique<cluster::Router>(rc);
    // Every worker answers only once its model is loaded.
    const auto deadline = Clock::now() + kHardTimeout;
    while (router->fleet_stats(/*timeout_ms=*/1000).workers.size() < kWorkers) {
        if (Clock::now() > deadline) throw std::runtime_error("fleet workers did not come up");
    }
    std::vector<std::future<ServeResult>> warm;
    for (int w = 0; w < kWorkers * kWarmupPerWorker; ++w) {
        warm.push_back(router->submit(0, frames.image(static_cast<std::size_t>(w))));
    }
    for (auto& f : warm) {
        if (f.wait_for(kHardTimeout) != std::future_status::ready ||
            f.get().status != ServeStatus::kOk) {
            throw std::runtime_error("fleet warm-up request failed");
        }
    }
    return router;
}

template <typename Field>
std::vector<double> column(const Phase& p, Field field) {
    std::vector<double> v;
    v.reserve(p.samples.size());
    for (const Sample& s : p.samples) v.push_back(field(s));
    return v;
}

}  // namespace

Report run_fleet(const Options& opts) {
    Report r;
    const DetectionDataset frames = scene_frames(opts.seed, scene_config(kSize, kSize, kSize),
                                                 kPoolFrames);
    std::vector<Detections> oracle;
    double load_ms = 0;
    {
        set_gemm_threads(1);
        const auto t0 = Clock::now();
        std::optional<Network> net = load_pretrained(ModelId::kDroNet, kSize);
        if (!net) throw std::runtime_error("weights/DroNet.weights not found");
        load_ms = ms_between(t0, Clock::now());
        net->set_batch(1);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            oracle.push_back(detect_image(*net, frames.image(i)));
        }
        if (opts.trace) add_forward_size(r, *net);
    }

    // Processor time of the router process and the fleet's worker processes.
    const auto fleet_cpu = [](cluster::Router& router) {
        double s = cpu_seconds();
        for (std::size_t slot = 0; slot < router.slots(); ++slot) {
            s += cpu_seconds_of(router.worker_pid(slot));
        }
        return s;
    };
    std::vector<double> setup_cpu_s, setup_wall_s;
    std::unique_ptr<cluster::Router> router;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        router.reset();
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        router = start_fleet(frames);
        setup_wall_s.push_back(seconds_since(t0));
        setup_cpu_s.push_back(fleet_cpu(*router) - cpu0);  // the workers are new
    }

    const double cpu0 = fleet_cpu(*router);
    const Phase timed = run_phase(*router, frames, oracle, opts.trace ? opts.seconds / 2 : opts.seconds, r);
    const double timed_cpu_s = fleet_cpu(*router) - cpu0;
    std::optional<Phase> traced;
    if (opts.trace) {
        Trace::instance().enable(1 << 16);
        traced = run_phase(*router, frames, oracle, opts.seconds / 2, r);
    }
    double worker_rss = 0;
    for (std::size_t slot = 0; slot < router->slots(); ++slot) {
        worker_rss = std::max(worker_rss, peak_rss_mb_of(router->worker_pid(slot)));
    }
    router.reset();

    r.attempted = timed.attempted;
    r.failed = timed.attempted - timed.samples.size();
    const auto ok = static_cast<double>(timed.samples.size());
    const std::vector<double> latency = column(timed, [](const Sample& s) { return s.latency_ms; });
    r.end_to_end.push_back({"cpu_ms_per_frame", timed_cpu_s * 1000.0 / ok, "ms"});
    r.end_to_end.push_back({"setup_s", median(setup_cpu_s), "s"});
    r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb() + worker_rss, "MB"});
    r.end_to_end.push_back({"throughput_fps", ok / timed.wall_s, "frames/s"});
    add_latency(r, latency);
    r.end_to_end.push_back({"setup_wall_s", median(setup_wall_s), "s"});
    r.extra.push_back({"det_exact_frac", ok == 0 ? 0 : 1.0 - static_cast<double>(timed.mismatches) / ok,
                       "ratio"});
    add_accuracy(r, oracle, frames);

    if (opts.trace) {
        // Codec cost on this workload's own frames.
        std::vector<double> encode_ms, decode_ms;
        std::size_t request_bytes = 0;
        for (int rep = 0; rep < kCodecReps; ++rep) {
            for (std::size_t i = 0; i < frames.size(); ++i) {
                const auto t0 = Clock::now();
                const std::vector<std::uint8_t> payload = cluster::encode_detect_request(frames.image(i));
                const auto t1 = Clock::now();
                const Image decoded = cluster::decode_detect_request(payload);
                const auto t2 = Clock::now();
                Trace::instance().span("encode_detect_request", static_cast<std::int64_t>(i), t0, t1);
                Trace::instance().span("decode_detect_request", static_cast<std::int64_t>(i), t1, t2);
                r.check(decoded.size() == frames.image(i).size(), "request codec changed the frame size");
                encode_ms.push_back(ms_between(t0, t1));
                decode_ms.push_back(ms_between(t1, t2));
                request_bytes = payload.size();
            }
        }
        const auto d = [&](std::uint64_t cluster::FleetStats::*f) {
            return static_cast<double>(timed.after.*f - timed.before.*f);
        };
        r.layers.push_back({"models.load_ms", load_ms, "ms"});
        r.layers.push_back({"alloc.per_frame", static_cast<double>(timed.allocations) / ok, "count"});
        r.layers.push_back({"eval.preprocess.ms",
                            mean(column(timed, [](const Sample& s) { return s.timings.preprocess_ms; })), "ms"});
        r.layers.push_back({"eval.forward.ms",
                            mean(column(timed, [](const Sample& s) { return s.timings.forward_ms; })), "ms"});
        r.layers.push_back({"eval.postprocess.ms",
                            mean(column(timed, [](const Sample& s) { return s.timings.postprocess_ms; })), "ms"});
        r.layers.push_back({"detect.boxes_per_frame", static_cast<double>(timed.boxes) / ok, "count"});
        r.layers.push_back({"cluster.request_bytes", static_cast<double>(request_bytes), "bytes"});
        r.layers.push_back({"cluster.encode.ms", median(encode_ms), "ms"});
        r.layers.push_back({"cluster.decode.ms", median(decode_ms), "ms"});
        r.layers.push_back({"cluster.unattributed.ms_p50",
                            percentile(column(timed, [](const Sample& s) { return s.unattributed_ms; }), 50),
                            "ms"});
        r.layers.push_back({"cluster.worker.queue_wait.ms_p50",
                            percentile(column(timed, [](const Sample& s) { return s.timings.queue_wait_ms; }), 50),
                            "ms"});
        r.layers.push_back({"cluster.retried", d(&cluster::FleetStats::retried), "count"});
        r.layers.push_back({"cluster.rejected_no_worker", d(&cluster::FleetStats::rejected_no_worker), "count"});
        r.layers.push_back({"bench.trace_overhead_ms",
                            median(column(*traced, [](const Sample& s) { return s.latency_ms; })) -
                                median(latency),
                            "ms"});
    }
    return r;
}

}  // namespace perfbench
