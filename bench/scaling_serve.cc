/**
 * @file
 * Throughput/latency of the serving runtime under duplicate-heavy
 * load.
 *
 * For a CPU-bound, seed-sensitive workload (NVSA at the serve preset,
 * driven with a Zipf-skewed seed universe) and two seed-insensitive
 * ones (LNN, NLM), drives a two-worker server with the result cache
 * off under saturating closed-loop load and reports sustained
 * throughput with the p50/p95/p99 latency tails.
 *
 * The gain mechanism under test is single-flight sharing: requests
 * for the same (model, seed) are interchangeable by the determinism
 * contract, so a request whose key is already in flight parks behind
 * that key's leader and is fanned its score. Gain is throughput over
 * the no-sharing capacity measured in the same run — workers divided
 * by the mean execution service time, the rate at which the workers
 * could answer if every request paid for its own run(). The
 * acceptance bar is >= 1.5x on at least two workloads.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime, motivated by the deployment recommendations of Sec. V.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

constexpr int kWorkers = 2;

/** One workload under test and how to drive it. */
struct Subject
{
    std::string name;
    double durationSeconds;
    uint64_t seedUniverse; ///< 0 -> unique seeds (nothing to share).
    double zipfExponent;
};

/** One measured operating point. */
struct Point
{
    double throughput = 0.0;
    double capacity = 0.0; ///< kWorkers / mean service (no sharing).
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double share = 0.0;
    uint64_t followers = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;

    double
    gain() const
    {
        return capacity > 0.0 ? throughput / capacity : 0.0;
    }
};

Point
measure(const Subject &subject)
{
    serve::ServerOptions server_options;
    server_options.workloads = {subject.name};
    server_options.workers = kWorkers;
    server_options.factory = serve::serveFactory;

    serve::LoadgenOptions load_options;
    load_options.openLoop = false;
    load_options.clients = 16;
    load_options.durationSeconds = subject.durationSeconds;
    load_options.seedUniverse = subject.seedUniverse;
    load_options.zipfExponent = subject.zipfExponent;

    serve::Server server(std::move(server_options));
    serve::LoadgenReport report =
        serve::runLoadgen(server, load_options);
    serve::WorkloadMetrics metrics =
        server.metrics().workload(subject.name);
    server.shutdown();

    Point point;
    point.throughput = report.throughput();
    double service = metrics.service.mean();
    point.capacity = service > 0.0 ? kWorkers / service : 0.0;
    point.p50Ms = metrics.latency.p50() * 1e3;
    point.p95Ms = metrics.latency.p95() * 1e3;
    point.p99Ms = metrics.latency.p99() * 1e3;
    point.share = metrics.shareFactor();
    point.followers = metrics.singleFlightShared;
    point.completed = metrics.completed;
    point.rejected = report.rejected;
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader("Serving throughput/latency under sharing",
                       "runtime extra (Sec. V deployment)");

    // NVSA is seed-sensitive: single-flight only merges requests
    // that ask for the same episode seed, so it is driven with a
    // small Zipf-skewed seed universe (popular puzzles repeat). LNN
    // and NLM declare seedSensitive() == false, so every concurrent
    // request shares one flight.
    const std::vector<Subject> subjects = {
        {"NVSA", 2.5, 4, 1.3},
        {"LNN", 1.2, 16, 1.1},
        {"NLM", 1.2, 16, 1.1},
    };

    util::Table table({"workload", "req/s", "capacity", "gain",
                       "share", "sf", "p50 ms", "p95 ms", "p99 ms",
                       "done", "rej"});
    std::ostringstream json;
    json << "{\"bench\":\"scaling_serve\",\"workers\":" << kWorkers
         << ",\"workloads\":[";

    int passing = 0;
    for (size_t s = 0; s < subjects.size(); s++) {
        const Subject &subject = subjects[s];
        Point point = measure(subject);
        if (point.gain() >= 1.5)
            passing++;
        table.addRow({subject.name,
                      util::fixedStr(point.throughput, 1),
                      util::fixedStr(point.capacity, 1),
                      util::fixedStr(point.gain(), 2) + "x",
                      util::fixedStr(point.share, 2),
                      std::to_string(point.followers),
                      util::fixedStr(point.p50Ms, 2),
                      util::fixedStr(point.p95Ms, 2),
                      util::fixedStr(point.p99Ms, 2),
                      std::to_string(point.completed),
                      std::to_string(point.rejected)});
        json << (s ? "," : "") << "{\"name\":\"" << subject.name
             << "\",\"throughput\":" << point.throughput
             << ",\"capacity\":" << point.capacity
             << ",\"gain\":" << point.gain()
             << ",\"p99_ms\":" << point.p99Ms
             << ",\"share\":" << point.share << "}";
    }
    json << "],\"passing\":" << passing << "}";

    table.print(std::cout);
    std::cout << "\nCapacity is the no-sharing rate of the same run: "
                 "workers / mean execution service time. Gain is "
                 "throughput over capacity; the serving acceptance "
                 "bar is >= 1.5x on at least two workloads: "
              << passing << "/3 pass.\n"
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return passing >= 2 ? 0 : 1;
}
