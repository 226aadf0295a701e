#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <sstream>
#include <thread>

#include "nn/network.hpp"
#include "simd/dispatch.hpp"
#include "video/frame_source.hpp"

// ---- allocation counter --------------------------------------------------------
//
// Replacing the global allocation functions counts every heap allocation in
// the process, the library's included. One relaxed increment per call.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) { return counted_aligned_alloc(size, a); }
void* operator new[](std::size_t size, std::align_val_t a) { return counted_aligned_alloc(size, a); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try { return counted_alloc(size); } catch (...) { return nullptr; }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try { return counted_alloc(size); } catch (...) { return nullptr; }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

// ---- statistics --------------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0;
    std::sort(samples.begin(), samples.end());
    const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0;
    double sum = 0;
    for (double s : samples) sum += s;
    return sum / static_cast<double>(samples.size());
}

// ---- process counters --------------------------------------------------------

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_seconds_of(int pid) {
    std::error_code ec;
    const std::filesystem::path tasks = "/proc/" + std::to_string(pid) + "/task";
    double ns = 0;
    for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
        std::ifstream in(task.path() / "schedstat");
        double on_cpu_ns = 0;  // first field: time spent running
        if (in >> on_cpu_ns) ns += on_cpu_ns;
    }
    return ns * 1e-9;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_rss_mb_of(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0;
}

// ---- tracing -----------------------------------------------------------------

Trace& Trace::instance() {
    static Trace trace;
    return trace;
}

void Trace::enable(std::size_t reserve) {
    std::lock_guard lock(mu_);
    spans_.reserve(reserve);
    origin_ = Clock::now();
    enabled_.store(true, std::memory_order_release);
}

std::int64_t Trace::new_id() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : -1;
}

void Trace::span(const char* name, std::int64_t frame, Clock::time_point start,
                 Clock::time_point end, std::int64_t parent, std::int64_t id) {
    if (!enabled()) return;
    if (id < 0) id = new_id();
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    const std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard lock(mu_);
    spans_.push_back({name, id, frame, parent, us(start), us(end), tid});
}

bool Trace::write(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    std::map<std::uint64_t, int> tids;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const int tid = tids.emplace(s.tid, static_cast<int>(tids.size()) + 1).first->second;
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"frame\":%lld,"
                      "\"parent\":%lld}}",
                      i == 0 ? "" : ",\n", s.name, tid, s.start_us, s.end_us - s.start_us,
                      static_cast<long long>(s.id), static_cast<long long>(s.frame),
                      static_cast<long long>(s.parent));
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ---- inputs ------------------------------------------------------------------

dronet::SceneConfig scene_config(int width, int height, int net_size) {
    constexpr int kTrainSize = 192;  // weights/DroNet.meta input_size
    dronet::SceneConfig scene = dronet::benchmark_scene_config(kTrainSize);
    const float scale = static_cast<float>(kTrainSize) / static_cast<float>(net_size) *
                        static_cast<float>(std::max(width, height)) /
                        static_cast<float>(std::min(width, height));
    scene.width = width;
    scene.height = height;
    scene.min_vehicle_size *= scale;
    scene.max_vehicle_size *= scale;
    return scene;
}

dronet::DetectionDataset camera_frames(std::uint64_t seed, const dronet::SceneConfig& scene,
                                       int vehicles, int clips, int frames_per_clip) {
    dronet::DetectionDataset frames;
    for (int c = 0; c < clips; ++c) {
        dronet::VideoConfig vc;
        vc.scene = scene;
        vc.num_vehicles = vehicles;
        vc.seed = seed * 1000003ULL + static_cast<std::uint64_t>(c);
        dronet::UavFrameSource source(vc);
        for (int f = 0; f < frames_per_clip * 4; ++f) {
            dronet::SceneSample s = source.next_frame();
            if (f % 4 == 3) frames.add(std::move(s.image), std::move(s.truths));
        }
    }
    return frames;
}

dronet::DetectionDataset scene_frames(std::uint64_t seed, const dronet::SceneConfig& scene,
                                      int count) {
    return dronet::generate_dataset(scene, count, seed * 7919ULL + 17);
}

// ---- correctness -------------------------------------------------------------

bool same_detections(const dronet::Detections& a, const dronet::Detections& b) {
    if (a.size() != b.size()) return false;
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (std::size_t i = 0; i < a.size(); ++i) {
        const dronet::Detection& x = a[i];
        const dronet::Detection& y = b[i];
        if (bits(x.box.x) != bits(y.box.x) || bits(x.box.y) != bits(y.box.y) ||
            bits(x.box.w) != bits(y.box.w) || bits(x.box.h) != bits(y.box.h) ||
            bits(x.objectness) != bits(y.objectness) || x.class_id != y.class_id ||
            bits(x.class_prob) != bits(y.class_prob)) {
            return false;
        }
    }
    return true;
}

void add_accuracy(Report& report, const std::vector<dronet::Detections>& dets,
                  const dronet::DetectionDataset& frames) {
    dronet::DetectionMetrics m;
    for (std::size_t i = 0; i < dets.size(); ++i) {
        m += dronet::match_detections(dets[i], frames.truths(i), 0.5f);
    }
    report.end_to_end.push_back({"sensitivity", m.sensitivity(), "ratio"});
    report.end_to_end.push_back({"precision", m.precision(), "ratio"});
    report.end_to_end.push_back({"mean_iou", m.avg_iou(), "ratio"});
}

void add_latency(Report& report, const std::vector<double>& latencies_ms) {
    report.latency_samples = latencies_ms.size();
    report.end_to_end.push_back({"latency_ms_p50", percentile(latencies_ms, 50), "ms"});
    report.extra.push_back({"latency_ms_p95", percentile(latencies_ms, 95), "ms"});
    if (latencies_ms.size() >= 1000) {
        report.extra.push_back({"latency_ms_p99", percentile(latencies_ms, 99), "ms"});
    }
}

void add_forward_size(Report& r, const dronet::Network& net) {
    double bytes = 0;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const dronet::Layer& l = net.layer(static_cast<int>(i));
        bytes += static_cast<double>(l.memory_bytes()) + 2.0 * static_cast<double>(l.workspace_bytes());
    }
    r.layers.push_back({"nn.forward.gflop", static_cast<double>(net.total_flops()) / 1e9, "GFLOP"});
    r.layers.push_back({"nn.forward.mbytes", bytes / 1e6, "MB"});
}

std::string fingerprint() {
    std::string model = "unknown";
    std::string flags;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto value = [&] {
            const auto colon = line.find(':');
            return colon == std::string::npos ? std::string() : line.substr(colon + 2);
        };
        if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
        if (flags.empty() && line.rfind("flags", 0) == 0) flags = " " + value() + " ";
    }
    std::string isa;
    for (const char* f : {"avx2", "fma", "avx512f", "avx512_vnni", "avx_vnni"}) {
        if (flags.find(" " + std::string(f) + " ") != std::string::npos) {
            isa += (isa.empty() ? "" : ",") + std::string(f);
        }
    }
#ifdef DRONET_FAULTS
    const char* faults = "ON";
#else
    const char* faults = "OFF";
#endif
    const char* simd_env = std::getenv("DRONET_SIMD");
    std::ostringstream os;
    os << "{\"cpu\":\"" << model << "\",\"isa\":\"" << isa
       << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"simd\":\""
       << dronet::simd::to_string(dronet::simd::active_level()) << "\",\"simd_env\":\""
       << (simd_env != nullptr ? simd_env : "") << "\",\"compiler\":\"" << PERFBENCH_COMPILER
       << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"dronet_faults\":\""
       << faults << "\"}";
    return os.str();
}

}  // namespace perfbench
