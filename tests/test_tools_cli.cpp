// CLI/help drift gate for the user-facing tools. Each tool's argument parser
// is the ground truth: this test scans the tool's source for the
// `a == "--flag"` parser idiom and asserts every parsed flag is documented in
// the tool's --help output (and that --help itself exits 0). This is what
// keeps kUsage and the parser from drifting apart — adding a flag without
// documenting it fails here.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#ifndef DRONET_DETECT_PATH
#define DRONET_DETECT_PATH ""
#endif
#ifndef DRONET_SERVE_BENCH_PATH
#define DRONET_SERVE_BENCH_PATH ""
#endif
#ifndef DRONET_PROFILE_PATH
#define DRONET_PROFILE_PATH ""
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
    for (const std::string& flag : parsed_flags(source)) {
        EXPECT_NE(help.output.find(flag), std::string::npos)
            << flag << " is parsed by " << source
            << " but missing from --help output";
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
