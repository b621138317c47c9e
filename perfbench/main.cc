/**
 * @file
 * Entry point of the perfbench binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --width N [--models L --reference L]
 *             [--rate R --mix L --universe N --zipf S]
 *
 * perfbench/run.py builds this binary and passes the workload's
 * parameters from perfbench/config.json; a list L is
 * `name:value,name:value`. The last line of standard output is the
 * full result record as one JSON object; the metric table goes to
 * standard error, a traced run's Chrome trace to .bench_out/.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "tensor/alloc.hh"
#include "util/simd.hh"

using namespace nsbench::perfbench;

namespace
{

const char *const outDir = ".bench_out";

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --width N [workload parameters]\n";
    std::exit(2);
}

/** A `name:value,name:value` list. */
NamedValues
parseList(const std::string &text)
{
    NamedValues out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        auto colon = item.find(':');
        if (colon == std::string::npos)
            usage("bad list item '" + item + "'");
        out.emplace_back(item.substr(0, colon),
                         std::stod(item.substr(colon + 1)));
    }
    return out;
}

Args
parse(int argc, char **argv)
{
    Args args;
    bool haveSeed = false;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--width") {
            args.width = std::stoi(value);
        } else if (flag == "--models") {
            args.models = parseList(value);
        } else if (flag == "--reference") {
            args.reference = parseList(value);
        } else if (flag == "--rate") {
            args.rate = std::stod(value);
        } else if (flag == "--mix") {
            args.mix = parseList(value);
        } else if (flag == "--universe") {
            args.universe = std::stoull(value);
        } else if (flag == "--zipf") {
            args.zipf = std::stod(value);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty() || !haveSeed || !(args.seconds > 0.0))
        usage("--workload, --seed and a positive --seconds are required");
    if (args.width < 1 || args.universe < 1)
        usage("--width and --universe must be positive");
    return args;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string oneMinute;
    in >> oneMinute;
    return oneMinute.empty() ? "unknown" : oneMinute;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    Report report;
    report.fact("workload", args.workload);
    report.fact("seed", std::to_string(args.seed));
    report.fact("seconds", std::to_string(args.seconds));
    report.fact("trace", args.trace ? "1" : "0");
    report.fact("load_avg_1m_at_start", loadAverage());
    report.fact("nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.fact("build_type", PERFBENCH_BUILD_TYPE);
    report.fact("simd_backend", nsbench::util::simd::activeBackendName());
    report.fact("allocator", nsbench::tensor::activeAllocatorName());
    report.fact("pool_width", std::to_string(args.width));
    std::string commandLine;
    for (int i = 1; i < argc; i++)
        commandLine += std::string(i > 1 ? " " : "") + argv[i];
    report.fact("command_line", commandLine);

    SpanLog spans(args.trace);
    if (args.workload == "episodes-neural")
        runEpisodes(args, report, spans);
    else if (args.workload == "serve-loopback")
        runServe(args, report, spans);
    else
        usage("unknown workload " + args.workload);

    if (args.trace) {
        std::string path = std::string(outDir) + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
        if (!spans.writeChrome(path))
            report.fail("could not write " + path);
        report.fact("chrome_trace", path);
        std::string self = "{";
        for (const auto &[layer, seconds] : spans.selfSeconds()) {
            self += std::string(self.size() > 1 ? ", " : "") + "\"" +
                    layer + "\": " + std::to_string(seconds);
            std::fprintf(stderr, "span self time %-10s %10.3f ms\n",
                         layer.c_str(), seconds * 1e3);
        }
        report.factJson("span_self_seconds", self + "}");
    }

    std::cerr << report.table();
    std::cout << report.json() << std::endl;
    return 0;
}
