/**
 * @file
 * Result-cache memoization: speedup and score identity.
 *
 * Three parts, two of which gate the exit code:
 *
 *  1. Identity gate — for all seven paper workloads at the serve
 *     presets, scores must be byte-identical with the result cache
 *     off and on (across different replica counts). Caching is a
 *     pure memoization layer: any difference at all is a correctness
 *     bug, so the comparison is exact double equality, not a
 *     tolerance.
 *
 *  2. Throughput gate — NVSA (seed-sensitive, CPU-bound) driven with
 *     a Zipf-skewed seed universe at the default skew (s = 1.1) must
 *     sustain >= 3x the cache-off throughput with a hit rate >= 50%.
 *     The window starts from an empty cache, so it pays for every
 *     miss its traffic produces — and the universe is sized to the
 *     window so that misses keep arriving all window long: executions
 *     must be >= 10% of the requests it completes.
 *     Over a fixed 16 seeds the clients paid 16 misses and then
 *     measured hits alone (470x at 99.6% hits), so the gate could
 *     not fail.
 *
 *  3. Sweep — Zipf skew {0.7, 1.1, 1.4} x cache size {tiny, ample},
 *     reporting throughput, hit rate and evictions at every point.
 *     The tiny budget holds ~2 of the 16 hot entries, so it shows the
 *     LRU keeping the head of the popularity distribution.
 *
 * Not a paper figure: this tracks the reproduction's own memoization
 * layer, motivated by the redundant-computation observations of
 * Sec. V.
 */

#include <algorithm>
#include <cstdint>
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

/** One measured loadgen operating point. */
struct Point
{
    double throughput = 0.0;
    double hitRate = 0.0;
    uint64_t completed = 0;
    uint64_t executions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
};

/** Serving workers of every measured server. */
constexpr int kWorkers = 2;
/** Length of the throughput gate's windows, seconds. */
constexpr double kGateSeconds = 1.5;
/** Least share of completed requests the gate window must execute. */
constexpr double kGateMinExecFrac = 0.10;
/** Seed universe of the skew x capacity sweep (part 3). */
constexpr uint64_t kSweepUniverse = 16;

/**
 * Runs the standard cache subject — NVSA at the serve preset under
 * closed-loop Zipf load over @p universe seeds — at one operating
 * point. The replicas are set up before the window; the cache starts
 * empty.
 */
Point
measure(bool cache_on, uint64_t universe, uint64_t cache_bytes,
        size_t cache_shards, double zipf, double duration_seconds)
{
    serve::ServerOptions server_options;
    server_options.workloads = {"NVSA"};
    server_options.workers = kWorkers;
    server_options.factory = serve::serveFactory;
    server_options.resultCache = cache_on;
    server_options.cacheBytes = cache_bytes;
    server_options.cacheShards = cache_shards;

    serve::LoadgenOptions load_options;
    load_options.openLoop = false;
    load_options.clients = 16;
    load_options.durationSeconds = duration_seconds;
    load_options.seedUniverse = universe;
    load_options.zipfExponent = zipf;

    serve::Server server(std::move(server_options));
    serve::LoadgenReport report =
        serve::runLoadgen(server, load_options);
    serve::WorkloadMetrics metrics =
        server.metrics().workload("NVSA");

    Point point;
    point.throughput = report.throughput();
    point.hitRate = metrics.cacheHitRate();
    point.completed = metrics.completed;
    point.executions = metrics.executions;
    if (const cache::ResultCache *rc = server.resultCache()) {
        cache::ResultCacheStats stats = rc->stats();
        point.evictions = stats.evictions;
        point.entries = stats.entries;
    }
    server.shutdown();
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader(
        "Result-cache memoization: speedup and score identity",
        "runtime extra (Sec. V redundant computation)");

    std::ostringstream json;
    json << "{\"bench\":\"scaling_cache\"";

    // Part 1: byte-identical scores, cache off vs on, for all seven
    // workloads at three episode seeds. The off pass runs on a
    // single replica; the on pass serves from two replicas and asks
    // for every seed twice so both the miss path and the hit path are
    // compared.
    const std::vector<uint64_t> seeds = {1, 2, 3};
    std::vector<std::vector<double>> baseline;
    {
        serve::ServerOptions off;
        off.workloads = bench::paperOrder();
        off.workers = 1;
        off.factory = serve::serveFactory;
        off.resultCache = false;
        serve::Server server(std::move(off));
        for (const std::string &name : bench::paperOrder()) {
            std::vector<double> scores;
            for (uint64_t seed : seeds)
                scores.push_back(server.call(name, seed).score);
            baseline.push_back(scores);
        }
    }

    int identical = 0;
    const int total = static_cast<int>(bench::paperOrder().size());
    util::Table identity_table(
        {"workload", "seed 1", "seed 2", "seed 3", "identical"});
    {
        serve::ServerOptions on;
        on.workloads = bench::paperOrder();
        on.workers = 2;
        on.factory = serve::serveFactory;
        on.resultCache = true;
        serve::Server server(std::move(on));
        for (size_t w = 0; w < bench::paperOrder().size(); w++) {
            const std::string &name = bench::paperOrder()[w];
            bool same = true;
            for (size_t s = 0; s < seeds.size(); s++) {
                double miss = server.call(name, seeds[s]).score;
                double hit = server.call(name, seeds[s]).score;
                same = same && miss == baseline[w][s] &&
                       hit == baseline[w][s];
            }
            if (same)
                identical++;
            identity_table.addRow(
                {name, util::fixedStr(baseline[w][0], 4),
                 util::fixedStr(baseline[w][1], 4),
                 util::fixedStr(baseline[w][2], 4),
                 same ? "yes" : "NO"});
        }
    }

    std::cout << "Score identity, cache off vs on (exact double "
                 "equality, miss and hit paths):\n";
    identity_table.print(std::cout);
    std::cout << "\n";
    json << ",\"identity_pass\":" << identical
         << ",\"identity_total\":" << total;

    // Part 2: the throughput gate at the default skew, each pass on
    // a fresh server.
    // Size the gate's universe to the window: 1.5 seeds per run the
    // workers fit in it, counted by a cache-off probe over seeds that
    // never repeat. Zipf draws then keep finding uncached seeds all
    // window long on a fast host and a slow one alike. At about one
    // seed per run the window can cache the whole universe, after
    // which the closed-loop clients re-request cached seeds at
    // admission speed and the window measures hits alone.
    Point probe = measure(false, 0, 64ull << 20, 8, 1.1,
                          kGateSeconds);
    const uint64_t universe =
        std::max<uint64_t>(kSweepUniverse, probe.executions * 3 / 2);
    Point off =
        measure(false, universe, 64ull << 20, 8, 1.1, kGateSeconds);
    Point on = measure(true, universe, 64ull << 20, 8, 1.1, kGateSeconds);

    double speedup =
        off.throughput > 0.0 ? on.throughput / off.throughput : 0.0;
    double exec_frac =
        on.completed > 0 ? static_cast<double>(on.executions) /
                               static_cast<double>(on.completed)
                         : 0.0;
    bool gate_pass = speedup >= 3.0 && on.hitRate >= 0.5 &&
                     exec_frac >= kGateMinExecFrac;

    util::Table gate_table({"cache", "req/s", "hit%", "done", "runs"});
    gate_table.addRow({"off", util::fixedStr(off.throughput, 1), "-",
                       std::to_string(off.completed),
                       std::to_string(off.executions)});
    gate_table.addRow({"on", util::fixedStr(on.throughput, 1),
                       util::fixedStr(on.hitRate * 100.0, 1),
                       std::to_string(on.completed),
                       std::to_string(on.executions)});
    std::cout << "Throughput gate (NVSA, universe " << universe
              << " = 1.5 x " << probe.executions
              << " probe runs, zipf 1.1, " << kWorkers
              << " workers, cold cache):\n";
    gate_table.print(std::cout);
    std::cout << "\nspeedup " << util::fixedStr(speedup, 2)
              << "x, hit rate " << util::fixedStr(on.hitRate * 100.0, 1)
              << "%, executions " << on.executions << " = "
              << util::fixedStr(exec_frac * 100.0, 1)
              << "% of completed (gate >= 3x with hit rate >= 50% and "
                 "executions >= 10%): "
              << (gate_pass ? "pass" : "FAIL") << "\n\n";
    json << ",\"gate\":{\"off_rps\":" << off.throughput
         << ",\"on_rps\":" << on.throughput
         << ",\"speedup\":" << speedup
         << ",\"hit_rate\":" << on.hitRate
         << ",\"executions\":" << on.executions
         << ",\"completed\":" << on.completed
         << ",\"exec_frac\":" << exec_frac
         << ",\"universe\":" << universe
         << ",\"probe_executions\":" << probe.executions
         << ",\"pass\":" << (gate_pass ? "true" : "false") << "}";

    // Part 3: skew x capacity sweep. The tiny budget (one shard, two
    // entries) forces the LRU to track the popularity head; the ample
    // budget holds the whole universe.
    struct Capacity
    {
        const char *label;
        uint64_t bytes;
        size_t shards;
    };
    const std::vector<double> skews = {0.7, 1.1, 1.4};
    const std::vector<Capacity> capacities = {
        {"tiny", 256, 1},
        {"ample", 64ull << 20, 8},
    };

    util::Table sweep_table({"zipf", "cache", "req/s", "hit%",
                             "entries", "evicted"});
    json << ",\"sweep\":[";
    bool first = true;
    for (double skew : skews) {
        for (const Capacity &cap : capacities) {
            Point point = measure(true, kSweepUniverse, cap.bytes,
                                  cap.shards, skew, 0.5);
            sweep_table.addRow(
                {util::fixedStr(skew, 1), cap.label,
                 util::fixedStr(point.throughput, 1),
                 util::fixedStr(point.hitRate * 100.0, 1),
                 std::to_string(point.entries),
                 std::to_string(point.evictions)});
            json << (first ? "" : ",") << "{\"zipf\":" << skew
                 << ",\"cache_bytes\":" << cap.bytes
                 << ",\"rps\":" << point.throughput
                 << ",\"hit_rate\":" << point.hitRate
                 << ",\"executions\":" << point.executions
                 << ",\"evictions\":" << point.evictions << "}";
            first = false;
        }
    }
    json << "]}";

    std::cout << "Skew x capacity sweep (cache on):\n";
    sweep_table.print(std::cout);

    bool pass = identical == total && gate_pass;
    std::cout << "\nAcceptance: scores identical on " << identical
              << "/" << total << " workloads, throughput gate "
              << (gate_pass ? "pass" : "FAIL") << " -> "
              << (pass ? "PASS" : "FAIL") << "\n"
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return pass ? 0 : 1;
}
