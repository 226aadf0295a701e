// perfbench — runs one benchmark workload and prints its report as one JSON
// line (the last line of standard output). perfbench/run.py builds this
// binary, checks the report against BENCHMARK.json and prints the table.
//
// Usage:
//   perfbench --workload camera_512|camera_512_int8|serve_224_open|fleet_96
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;

std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64] = "null";  // JSON has no infinity (a p99 over failed frames)
        if (std::isfinite(metrics[i].value)) {
            std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
        }
        out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" + value +
               ",\"unit\":\"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

int run(int argc, char** argv) {
    perfbench::Options opts;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") opts.workload = v;
        else if (a == "--seed") opts.seed = std::stoull(v);
        else if (a == "--seconds") opts.seconds = std::stod(v);
        else if (a == "--trace") opts.trace = std::stoi(v) != 0;
        else if (a == "--trace-out") trace_out = v;
        else throw std::invalid_argument("unknown flag " + a);
    }
    if (opts.seconds <= 0) throw std::invalid_argument("--seconds must be positive");

    perfbench::Report r;
    if (opts.workload == "camera_512") r = perfbench::run_camera(opts, /*int8=*/false);
    else if (opts.workload == "camera_512_int8") r = perfbench::run_camera(opts, /*int8=*/true);
    else if (opts.workload == "serve_224_open") r = perfbench::run_serve_open(opts);
    else if (opts.workload == "fleet_96") r = perfbench::run_fleet(opts);
    else throw std::invalid_argument("unknown workload '" + opts.workload + "'");

    if (opts.trace && !trace_out.empty()) {
        r.check(perfbench::Trace::instance().write(trace_out), "could not write " + trace_out);
    }
    std::string violations = "[";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        violations += (i == 0 ? "\"" : ",\"") + escape(r.violations[i]) + "\"";
    }
    violations += "]";
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
        "\"fingerprint\":%s,\"attempted\":%llu,\"failed\":%llu,\"latency_samples\":%llu,"
        "\"violations\":%s,\"end_to_end\":%s,\"extra\":%s,\"layers\":%s}\n",
        opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
        opts.trace ? 1 : 0, perfbench::fingerprint().c_str(),
        static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.latency_samples), violations.c_str(),
        metrics_json(r.end_to_end).c_str(), metrics_json(r.extra).c_str(),
        metrics_json(r.layers).c_str());
    return r.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
