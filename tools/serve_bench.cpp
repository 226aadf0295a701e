// serve_bench — the load generator for both serving tiers.
//
// Simulates M concurrent camera streams replaying frames from the canonical
// synthetic dataset. By default they drive one in-process DetectionService;
// with --cluster they drive a cluster Router over spawned serve_worker
// processes (--workers then means service threads per worker process). Both
// modes run the same stream loop and the same verdict; only construction,
// the reload call, the chaos hook and the stats JSON differ. Each run prints
// its stats JSON on stdout and a one-line summary on stderr.
//
// Flags: see kUsage below (or --help).
//
// Stream loop: each stream keeps at most --client-inflight frames
// outstanding and waits on its oldest first (default: --frames-per-stream,
// i.e. submit everything, then await). --interval-ms > 0 paces each stream
// like a camera (T ms between submits), which exercises the backpressure
// policies. Every --small-every'th frame is a --small-size frame (mixed
// resolutions exercise the preprocess path). Every future is awaited with a
// 300 s hard deadline: both tiers promise every future resolves, so a hung
// one fails the run instead of hanging it.
//
// Verdict (both modes): the run exits non-zero unless every future resolved
// and the tier's accounting invariant holds; --expect-complete additionally
// requires every frame to resolve kOk (skipped when --kill-after-ms or
// --reload-kill-slot kills a worker on purpose).
//
// Service knobs (forwarded to every serve_worker with --cluster): --batch > 1
// enables worker micro-batching (the JSON then reports a per-batch-size
// histogram); --deadline-ms and --retries map onto the matching
// ServiceConfig fields (docs/robustness.md). --filter-scale other than 1
// builds a seeded model of that width; at 1 the pretrained checkpoint loads
// when present. In-process only: --profile prints one per-layer timing JSON
// line per worker replica (docs/performance.md), the --degrade-* trio maps
// onto ServiceConfig, and --inject PLAN installs a deterministic fault plan
// ("site:action[:key=value]*", e.g. "network.forward:kill:nth=5:times=1")
// before the service starts.
//
// Fleet knobs: --cluster takes a list of fleet sizes and runs the workload
// once per size (one fleet JSON line each), after one warm-up frame per
// worker. --inflight-limit is the router's per-worker pipelining cap,
// --dispatch its dispatch policy, --max-inflight/--rate/--burst its
// per-client admission control, and --stats-every N polls fleet stats over
// the wire every N'th frame. --kill-after-ms T SIGKILLs worker 0 mid-run
// (chaos): every future must still resolve (ok, retried onto a healthy
// worker, kRejected by admission, or kShutdown).
//
// Model lifecycle (docs/robustness.md): --reload PATH hot-swaps the service
// (or rolls the fleet) onto checkpoint PATH after --reload-after-ms while the
// streams keep submitting; the run fails unless the swap commits.
// --reload-expect-reject inverts that: the canary must reject the candidate.
// --reload-kill-slot N SIGKILLs worker slot N as the rollout starts
// (--cluster): the rollout must abort and roll the fleet back.
// Flags that do not apply to the chosen mode are an error, not a no-op.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "models/model_zoo.hpp"
#include "models/pretrained.hpp"
#include "profile/profiler.hpp"
#include "serve/detection_service.hpp"
#include "tensor/gemm.hpp"

#ifndef DRONET_SERVE_WORKER_PATH
#define DRONET_SERVE_WORKER_PATH ""
#endif

namespace {

using namespace dronet;
using serve::ServeResult;
using serve::ServeStatus;

// One line per parsed flag; tests/test_tools_cli.cpp asserts the parser and
// this text never drift apart.
constexpr const char* kUsage =
    "usage: serve_bench [options]\n"
    "  --workers N           service threads (per worker process with --cluster)\n"
    "  --streams M           concurrent synthetic camera streams\n"
    "  --frames-per-stream K frames each stream submits\n"
    "  --size S              square input resolution\n"
    "  --capacity Q          admission queue capacity\n"
    "  --policy P            backpressure: block|reject|drop-oldest\n"
    "  --model NAME          model zoo entry\n"
    "  --gemm-threads N      intra-op GEMM threads per forward\n"
    "  --interval-ms T       per-stream submit pacing (0 = flat out)\n"
    "  --client-inflight N   per-stream in-flight window (default: K)\n"
    "  --small-every N       every N'th frame is a small frame\n"
    "  --small-size S        small frame resolution (default: S/2)\n"
    "  --batch B             worker micro-batch size\n"
    "  --batch-timeout-us U  micro-batch linger window\n"
    "  --int8                calibrated int8 conv path per replica\n"
    "  --profile             per-layer timing JSON per worker replica\n"
    "  --expect-complete     exit non-zero unless every frame resolved ok\n"
    "  --deadline-ms D       per-frame deadline\n"
    "  --retries R           max retries after worker failure\n"
    "  --degraded-size S     input size under degraded mode\n"
    "  --degrade-high N      queue depth entering degraded mode\n"
    "  --degrade-low N       queue depth leaving degraded mode\n"
    "  --inject PLAN         deterministic fault plan (site:action[:k=v]*)\n"
    "  --filter-scale F      model width multiplier (1 = pretrained checkpoint)\n"
    "  --cluster W[,W...]    multi-process mode, one run per fleet size W\n"
    "  --worker-bin PATH     serve_worker binary for --cluster\n"
    "  --inflight-limit N    per-worker in-flight cap (--cluster)\n"
    "  --dispatch D          least-loaded|round-robin (--cluster)\n"
    "  --max-inflight N      per-client in-flight admission cap (--cluster)\n"
    "  --rate R              per-client token-bucket rate, frames/s (--cluster)\n"
    "  --burst B             per-client token-bucket depth (--cluster)\n"
    "  --stats-every N       poll fleet stats every N'th frame (--cluster)\n"
    "  --kill-after-ms T     SIGKILL worker 0 after T ms (--cluster chaos)\n"
    "  --reload PATH         hot-reload checkpoint PATH mid-run\n"
    "  --reload-after-ms T   delay before the reload fires\n"
    "  --reload-expect-reject  require the canary gate to reject the candidate\n"
    "  --reload-kill-slot N  SIGKILL slot N as the rollout starts (--cluster chaos)\n"
    "  --help                print this help\n";

// Flags only one mode reads; passing one to the other mode is an error.
const std::vector<std::string> kServiceOnlyFlags = {
    "--policy", "--profile", "--inject", "--degraded-size", "--degrade-high",
    "--degrade-low"};
const std::vector<std::string> kClusterOnlyFlags = {
    "--worker-bin", "--inflight-limit", "--kill-after-ms", "--reload-kill-slot",
    "--dispatch", "--max-inflight", "--rate", "--burst", "--stats-every"};

/// Command-line state. Service and router knobs parse straight into the
/// configs they set; with --cluster the service ones go to every worker.
struct Args {
    serve::ServiceConfig service;
    cluster::RouterConfig router;
    int streams = 4;
    int frames_per_stream = 32;
    int size = 256;
    std::string model = "DroNet";
    int gemm_threads = 1;
    double interval_ms = 0;
    int client_inflight = 0;  ///< 0 = frames_per_stream
    int small_every = 0;
    int small_size = 0;
    bool profile = false;
    bool expect_complete = false;
    bool help = false;
    std::string inject_plan;
    float filter_scale = 1.0f;
    std::vector<int> cluster;  ///< fleet sizes; empty = in-process
    std::string worker_bin = DRONET_SERVE_WORKER_PATH;
    int stats_every = 0;
    std::int64_t kill_after_ms = 0;
    std::string reload_path;
    std::int64_t reload_after_ms = 0;
    bool reload_expect_reject = false;
    int reload_kill_slot = -1;
    std::set<std::string> given;  ///< every flag on the command line
};

std::vector<int> parse_int_list(const std::string& s) {
    std::vector<int> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
    if (out.empty()) throw std::runtime_error("empty --cluster list");
    return out;
}

Args parse_args(int argc, char** argv) {
    Args args;
    args.service.workers = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        args.given.insert(a);
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workers") args.service.workers = std::stoi(next());
        else if (a == "--streams") args.streams = std::stoi(next());
        else if (a == "--frames-per-stream") args.frames_per_stream = std::stoi(next());
        else if (a == "--size") args.size = std::stoi(next());
        else if (a == "--capacity") args.service.queue_capacity = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--model") args.model = next();
        else if (a == "--gemm-threads") args.gemm_threads = std::stoi(next());
        else if (a == "--interval-ms") args.interval_ms = std::stod(next());
        else if (a == "--client-inflight") args.client_inflight = std::stoi(next());
        else if (a == "--small-every") args.small_every = std::stoi(next());
        else if (a == "--small-size") args.small_size = std::stoi(next());
        else if (a == "--batch") args.service.max_batch = std::stoi(next());
        else if (a == "--batch-timeout-us") args.service.batch_timeout_us = std::stoll(next());
        else if (a == "--int8") args.service.int8 = true;
        else if (a == "--profile") args.profile = true;
        else if (a == "--expect-complete") args.expect_complete = true;
        else if (a == "--help") args.help = true;
        else if (a == "--deadline-ms") args.service.deadline_ms = std::stoll(next());
        else if (a == "--retries") args.service.max_retries = std::stoi(next());
        else if (a == "--degraded-size") args.service.degraded_size = std::stoi(next());
        else if (a == "--degrade-high") args.service.degrade_high_watermark = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--degrade-low") args.service.degrade_low_watermark = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--inject") args.inject_plan = next();
        else if (a == "--filter-scale") args.filter_scale = std::stof(next());
        else if (a == "--cluster") args.cluster = parse_int_list(next());
        else if (a == "--worker-bin") args.worker_bin = next();
        else if (a == "--inflight-limit") args.router.worker_inflight_limit = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--max-inflight") args.router.client_max_inflight = static_cast<std::size_t>(std::stoul(next()));
        else if (a == "--rate") args.router.client_rate_per_s = std::stod(next());
        else if (a == "--burst") args.router.client_burst = std::stod(next());
        else if (a == "--stats-every") args.stats_every = std::stoi(next());
        else if (a == "--kill-after-ms") args.kill_after_ms = std::stoll(next());
        else if (a == "--reload") args.reload_path = next();
        else if (a == "--reload-after-ms") args.reload_after_ms = std::stoll(next());
        else if (a == "--reload-expect-reject") args.reload_expect_reject = true;
        else if (a == "--reload-kill-slot") args.reload_kill_slot = std::stoi(next());
        else if (a == "--policy") {
            const std::string p = next();
            using serve::BackpressurePolicy;
            if (p == "block") args.service.policy = BackpressurePolicy::kBlock;
            else if (p == "reject") args.service.policy = BackpressurePolicy::kReject;
            else if (p == "drop-oldest") args.service.policy = BackpressurePolicy::kDropOldest;
            else throw std::runtime_error("unknown policy " + p);
        } else if (a == "--dispatch") {
            const std::string d = next();
            using cluster::DispatchPolicy;
            if (d == "least-loaded") args.router.dispatch = DispatchPolicy::kLeastLoaded;
            else if (d == "round-robin") args.router.dispatch = DispatchPolicy::kRoundRobin;
            else throw std::runtime_error("unknown dispatch policy " + d);
        } else {
            throw std::runtime_error("unknown flag " + a);
        }
    }
    const bool fleet = !args.cluster.empty();
    for (const std::string& f : fleet ? kServiceOnlyFlags : kClusterOnlyFlags) {
        if (args.given.count(f) != 0) {
            throw std::runtime_error(f + (fleet ? " does not apply with --cluster"
                                                : " needs --cluster"));
        }
    }
    if (args.service.degrade_high_watermark > 0 && args.service.degraded_size <= 0) {
        args.service.degraded_size = args.size / 2;
    }
    return args;
}

/// The shared frame pools; each stream replays them from a different offset
/// so streams are out of phase like real cameras.
struct Frames {
    DetectionDataset full;
    DetectionDataset small;  ///< empty unless --small-every
};

Frames make_frames(const Args& args) {
    const int count = std::max(8, args.frames_per_stream);
    Frames f{generate_dataset(benchmark_scene_config(args.size), count, /*seed=*/0xbeef), {}};
    if (args.small_every > 0) {
        const int small = args.small_size > 0 ? args.small_size : args.size / 2;
        f.small = generate_dataset(benchmark_scene_config(small), count, /*seed=*/0xfeed);
    }
    return f;
}

/// Hard ceiling on any single future; hitting it means a real bug.
constexpr auto kFutureDeadline = std::chrono::seconds(300);

/// What the stream loop observed, counted client-side.
struct Tally {
    std::uint64_t by_status[6] = {};
    std::uint64_t abandoned = 0;  ///< futures that missed the hard deadline
    double wall_seconds = 0;
    [[nodiscard]] std::uint64_t ok() const {
        return by_status[static_cast<int>(ServeStatus::kOk)];
    }
};

/// What the stream loop drives. The two modes differ only behind this
/// interface; chaos hooks live in the constructors and finish().
class Target {
  public:
    Target() = default;
    Target(const Target&) = delete;
    Target& operator=(const Target&) = delete;
    virtual ~Target() = default;
    virtual std::future<ServeResult> submit(std::uint64_t client, const Image& frame) = 0;
    /// Called every --stats-every'th frame.
    virtual void poll_stats() {}
    /// The mid-run reload: whether it committed, and a one-line report.
    virtual std::pair<bool, std::string> reload(const std::string& path) = 0;
    /// Drains and stops the tier, prints its stats JSON and the stderr
    /// summary, and returns whether its accounting invariant holds.
    virtual bool finish(const Tally& tally) = 0;
};

/// The one stream loop: each stream is a client thread keeping at most the
/// in-flight window outstanding, settling its oldest future first.
Tally run_streams(const Args& args, const Frames& frames, Target& target) {
    const std::size_t window = static_cast<std::size_t>(
        std::max(1, args.client_inflight > 0 ? args.client_inflight : args.frames_per_stream));
    std::atomic<std::uint64_t> by_status[6] = {};
    std::atomic<std::uint64_t> abandoned{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> streams;
    streams.reserve(static_cast<std::size_t>(args.streams));
    for (int s = 0; s < args.streams; ++s) {
        streams.emplace_back([&, s] {
            std::deque<std::future<ServeResult>> inflight;
            auto settle = [&] {
                std::future<ServeResult> fut = std::move(inflight.front());
                inflight.pop_front();
                if (fut.wait_for(kFutureDeadline) != std::future_status::ready) {
                    abandoned.fetch_add(1);
                    return;
                }
                by_status[static_cast<int>(fut.get().status)].fetch_add(1);
            };
            for (int f = 0; f < args.frames_per_stream; ++f) {
                if (args.stats_every > 0 && (f + 1) % args.stats_every == 0) {
                    target.poll_stats();
                }
                const bool small = args.small_every > 0 && (f + 1) % args.small_every == 0;
                const DetectionDataset& pool = small ? frames.small : frames.full;
                const std::size_t idx =
                    (static_cast<std::size_t>(s) * 7 + static_cast<std::size_t>(f)) %
                    pool.size();
                while (inflight.size() >= window) settle();
                inflight.push_back(
                    target.submit(static_cast<std::uint64_t>(s) + 1, pool.image(idx)));
                if (args.interval_ms > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(args.interval_ms));
                }
            }
            while (!inflight.empty()) settle();
        });
    }
    for (auto& t : streams) t.join();
    Tally tally;
    for (int s = 0; s < 6; ++s) tally.by_status[s] = by_status[s].load();
    tally.abandoned = abandoned.load();
    tally.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return tally;
}

/// Runs the workload once against `target` (reload concurrent with the
/// streams when asked) and returns the process exit code.
int drive(const Args& args, const Frames& frames, Target& target) {
    std::pair<bool, std::string> reload_out;
    std::thread reloader;
    if (!args.reload_path.empty()) {
        reloader = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(args.reload_after_ms));
            reload_out = target.reload(args.reload_path);
        });
    }
    const Tally tally = run_streams(args, frames, target);
    if (reloader.joinable()) reloader.join();
    const bool accounting_ok = target.finish(tally);

    int rc = 0;
    const std::uint64_t expected = static_cast<std::uint64_t>(args.streams) *
                                   static_cast<std::uint64_t>(args.frames_per_stream);
    std::uint64_t resolved = 0;
    for (const std::uint64_t n : tally.by_status) resolved += n;
    if (resolved != expected) {
        std::fprintf(stderr, "# FAIL: resolved %" PRIu64 " of %" PRIu64 " futures (%" PRIu64
                     " hung past the deadline)\n", resolved, expected, tally.abandoned);
        rc = 1;
    }
    if (!accounting_ok) {
        std::fprintf(stderr, "# FAIL: accounting invariant violated\n");
        rc = 1;
    }
    if (!args.reload_path.empty()) {
        // A mid-rollout kill must abort the rollout; otherwise the verdict
        // is dictated by --reload-expect-reject.
        const bool want_ok = !args.reload_expect_reject && args.reload_kill_slot < 0;
        std::fprintf(stderr, "# reload %s: %s\n", args.reload_path.c_str(),
                     reload_out.second.c_str());
        if (reload_out.first != want_ok) {
            std::fprintf(stderr, "# FAIL: reload %s but expected %s\n",
                         reload_out.first ? "committed" : "failed",
                         want_ok ? "commit" : "reject/abort");
            rc = 1;
        }
    }
    const bool chaos = args.kill_after_ms > 0 || args.reload_kill_slot >= 0;
    if (args.expect_complete && !chaos && tally.ok() != expected) {
        std::fprintf(stderr, "# FAIL --expect-complete: %" PRIu64 " of %" PRIu64
                     " frames resolved ok\n", tally.ok(), expected);
        rc = 1;
    }
    return rc;
}

/// In-process mode: one DetectionService in this process.
class ServiceTarget final : public Target {
  public:
    explicit ServiceTarget(const Args& args)
        : args_(args), service_(build_network(args), args.service) {}

    std::future<ServeResult> submit(std::uint64_t /*client*/, const Image& frame) override {
        return service_.submit(frame);
    }

    std::pair<bool, std::string> reload(const std::string& path) override {
        const serve::ReloadOutcome out = service_.reload_checkpoint(path);
        return {out.ok, std::string(out.ok ? "committed" : "rejected") +
                            " (model_version " + std::to_string(out.model_version) + ")" +
                            (out.error.empty() ? "" : " — " + out.error)};
    }

    bool finish(const Tally& /*tally*/) override {
        service_.drain();
        service_.stop();  // quiesce workers so profiler reads below are safe
        if (!args_.inject_plan.empty()) fault::FaultInjector::instance().clear();
        const serve::ServeStatsSnapshot snap = service_.stats();
        std::printf("%s\n", snap.to_json().c_str());
        if (args_.profile) {
            const std::vector<std::string> reports = service_.profile_reports();
            for (std::size_t w = 0; w < reports.size(); ++w) {
                std::printf("{\"worker\":%zu,\"profile\":%s}\n", w, reports[w].c_str());
            }
        }
        std::fprintf(stderr,
                     "# %d workers, %d streams x %d frames @%d: %.1f frames/s, p99 %.1f ms "
                     "(dropped %" PRIu64 ", rejected %" PRIu64 ", failed %" PRIu64
                     ", expired %" PRIu64 ", restarts %" PRIu64 ", degraded %" PRIu64 ")\n",
                     args_.service.workers, args_.streams, args_.frames_per_stream,
                     args_.size, snap.throughput_fps, snap.total.p99_ms, snap.dropped, snap.rejected,
                     snap.failed, snap.deadline_expired, snap.worker_restarts,
                     snap.degraded_frames);
        return snap.accounting_ok();
    }

  private:
    /// Arms the fault plan and profiler, then builds the prototype with
    /// serve_worker's rule: the pretrained checkpoint only at filter scale 1.
    static Network build_network(const Args& args) {
        set_gemm_threads(args.gemm_threads);
        if (!args.inject_plan.empty()) {
            if (!fault::compiled_in()) {
                throw std::runtime_error(
                    "--inject needs a build with DRONET_FAULTS=ON (fault sites "
                    "are compiled out)");
            }
            fault::FaultInjector::instance().install(fault::FaultPlan::parse(args.inject_plan));
            std::fprintf(stderr, "# fault plan armed: %s\n", args.inject_plan.c_str());
        }
        if (args.profile) profile::set_profiling(true);
        const ModelId id = model_from_string(args.model);
        Network net = [&] {
            if (args.filter_scale == 1.0f) {
                if (auto pre = load_pretrained(id, args.size)) {
                    std::fprintf(stderr, "# loaded pretrained %s checkpoint\n",
                                 args.model.c_str());
                    return std::move(*pre);
                }
            }
            std::fprintf(stderr, "# no checkpoint; random weights (timing-only run)\n");
            return build_model(id, {.input_size = args.size,
                                    .filter_scale = args.filter_scale});
        }();
        net.set_batch(1);
        if (net.config().width != args.size) net.resize_input(args.size, args.size);
        return net;
    }

    const Args& args_;
    serve::DetectionService service_;
};

/// Fleet mode: a Router over `workers` spawned serve_worker processes.
class FleetTarget final : public Target {
  public:
    FleetTarget(const Args& args, int workers, const Frames& frames)
        : args_(args), workers_(workers), router_(router_config(args, workers)) {
        // Warm-up: one frame per worker, awaited, so the measured window
        // sees a steady fleet (worker start-up builds the model).
        std::vector<std::future<ServeResult>> warm;
        for (int w = 0; w < workers; ++w) warm.push_back(router_.submit(0, frames.full.image(0)));
        for (auto& f : warm) {
            if (f.wait_for(kFutureDeadline) != std::future_status::ready) {
                throw std::runtime_error("warm-up frame unresolved at the deadline");
            }
        }
        if (args.kill_after_ms > 0) {
            chaos_ = std::thread([this] {
                std::this_thread::sleep_for(std::chrono::milliseconds(args_.kill_after_ms));
                std::fprintf(stderr, "# chaos: SIGKILL worker 0 (pid %d)\n",
                             static_cast<int>(router_.worker_pid(0)));
                router_.kill_worker(0);
            });
        }
    }
    ~FleetTarget() override {
        if (chaos_.joinable()) chaos_.join();
    }

    std::future<ServeResult> submit(std::uint64_t client, const Image& frame) override {
        return router_.submit(client, frame);
    }

    void poll_stats() override { (void)router_.fleet_stats(/*timeout_ms=*/1000); }

    std::pair<bool, std::string> reload(const std::string& path) override {
        const int slot = args_.reload_kill_slot;
        if (slot >= 0 && slot < static_cast<int>(router_.slots())) {
            std::fprintf(stderr, "# chaos: SIGKILL slot %d at rollout start\n", slot);
            router_.kill_worker(static_cast<std::size_t>(slot));
        }
        const cluster::RolloutReport report = router_.rolling_reload(path);
        return {report.ok, report.to_json()};
    }

    bool finish(const Tally& tally) override {
        if (chaos_.joinable()) chaos_.join();
        router_.drain();
        const cluster::FleetStats fs = router_.fleet_stats();
        router_.stop();
        std::printf("%s\n", fs.to_json().c_str());
        std::fprintf(stderr,
                     "# cluster of %d x %d-thread workers, %d streams x %d frames @%d: "
                     "%.1f frames/s, client %.1f ok/s (ok %" PRIu64 ", rejected %" PRIu64
                     ", shutdown %" PRIu64 ", retried %" PRIu64 ", deaths %" PRIu64
                     ", respawns %" PRIu64 ")\n",
                     workers_, args_.service.workers, args_.streams, args_.frames_per_stream,
                     args_.size, fs.throughput_fps,
                     static_cast<double>(tally.ok()) / std::max(tally.wall_seconds, 1e-9),
                     fs.ok, fs.rejected, fs.shutdown, fs.retried, fs.worker_deaths,
                     fs.worker_respawns);
        return fs.accounting_ok();
    }

  private:
    static cluster::RouterConfig router_config(const Args& args, int workers) {
        const serve::ServiceConfig& sc = args.service;
        cluster::RouterConfig rc = args.router;
        rc.worker_argv = {args.worker_bin,
                          "--workers", std::to_string(sc.workers),
                          "--size", std::to_string(args.size),
                          "--model", args.model,
                          "--filter-scale", std::to_string(args.filter_scale),
                          "--capacity", std::to_string(sc.queue_capacity),
                          "--batch", std::to_string(sc.max_batch),
                          "--batch-timeout-us", std::to_string(sc.batch_timeout_us),
                          "--deadline-ms", std::to_string(sc.deadline_ms),
                          "--retries", std::to_string(sc.max_retries),
                          "--gemm-threads", std::to_string(args.gemm_threads)};
        if (sc.int8) rc.worker_argv.push_back("--int8");
        rc.workers = workers;
        return rc;
    }

    const Args& args_;
    const int workers_;
    cluster::Router router_;
    std::thread chaos_;
};

int run(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (args.help) {
        std::printf("%s", kUsage);
        return 0;
    }
    const Frames frames = make_frames(args);
    if (args.cluster.empty()) {
        ServiceTarget target(args);
        return drive(args, frames, target);
    }
    if (args.worker_bin.empty()) {
        throw std::runtime_error("--cluster needs --worker-bin (no default)");
    }
    int rc = 0;
    for (const int workers : args.cluster) {
        FleetTarget target(args, workers, frames);
        rc = std::max(rc, drive(args, frames, target));
    }
    return rc;
}

}  // namespace

int main(int argc, char** argv) {
    // Bad flags, a malformed --inject plan, or a missing/corrupt checkpoint
    // all end as one actionable line and a non-zero exit.
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_bench: error: %s\n", e.what());
        return 1;
    }
}
