/**
 * @file
 * Network serving scaling: loopback overhead and sharded routing.
 *
 * Two questions about the net front end (docs/DESIGN.md §7h):
 *
 *  1. What does the wire cost? The same server is driven by the same
 *     closed-loop load twice — in-process through ServerTarget, and
 *     over a loopback TCP connection through net::Client — and the
 *     throughput ratio is the protocol + socket overhead. Reported,
 *     not gated: loopback RTT varies across machines.
 *
 *  2. Does sharding scale? A consistent-hash router spreads a
 *     seed-sensitive workload over 1, 2 and 4 backends whose result
 *     caches are individually too small for the whole seed universe.
 *     Affinity means N backends hold N cache shards: one backend
 *     thrashes its LRU while four serve mostly hits. The acceptance
 *     bar is >= 1.5x throughput going from 1 to 4 backends — the
 *     gain mechanism is aggregate cache capacity, so it holds even
 *     on a single-core host where CPU parallelism cannot.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime, motivated by the deployment recommendations of Sec. V.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/tcp_server.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

/** Distinct episode seeds in play; must overflow one backend's
 *  result cache but fit comfortably in four (see cacheBytes). */
constexpr uint64_t kSeedUniverse = 64;

serve::ServerOptions
backendOptions(const std::string &workload)
{
    serve::ServerOptions options;
    options.workloads = {workload};
    options.workers = 1;
    options.factory = serve::serveFactory;
    options.resultCache = true;
    // ~24 entries at the cache's per-entry cost: a third of the seed
    // universe. One backend evicts constantly; a four-way shard of
    // the universe (~16 keys each) fits with room to spare.
    options.cacheBytes = 2048;
    options.cacheShards = 1;
    return options;
}

serve::LoadgenOptions
loadOptions(double duration_seconds)
{
    serve::LoadgenOptions options;
    options.openLoop = false;
    options.clients = 8;
    options.durationSeconds = duration_seconds;
    options.seedUniverse = kSeedUniverse;
    options.zipfExponent = 0.0; // Uniform: worst case for one LRU.
    return options;
}

/** One loopback backend: server plus TCP front end. */
struct Backend
{
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<net::TcpServer> tcp;
};

std::unique_ptr<Backend>
makeBackend(const std::string &workload)
{
    auto backend = std::make_unique<Backend>();
    backend->server =
        std::make_unique<serve::Server>(backendOptions(workload));
    backend->tcp =
        std::make_unique<net::TcpServer>(*backend->server);
    return backend;
}

/** One measured operating point of the sharded sweep. */
struct Point
{
    int backends = 0;
    double throughput = 0.0;
    double hitRate = 0.0;
    uint64_t completed = 0;
    uint64_t evictions = 0;
};

Point
measureSharded(const std::string &workload, int backend_count)
{
    std::vector<std::unique_ptr<Backend>> fleet;
    net::RouterOptions router_options;
    for (int i = 0; i < backend_count; i++) {
        fleet.push_back(makeBackend(workload));
        router_options.backends.push_back(
            "127.0.0.1:" +
            std::to_string(fleet.back()->tcp->port()));
    }
    net::Router router(router_options);

    net::ClientOptions client_options;
    client_options.port = router.port();
    net::Client client(client_options);
    net::RemoteTarget target(client, {workload});

    // Warm every key once so the sweep measures steady state, not
    // first-touch misses (each backend fills with its shard).
    for (uint64_t seed = 0; seed < kSeedUniverse; seed++)
        target.call(workload, seed, serve::noDeadline());

    serve::LoadgenReport report =
        serve::runLoadgen(target, loadOptions(1.5));

    Point point;
    point.backends = backend_count;
    point.throughput = report.throughput();
    point.completed = report.completed;
    uint64_t hits = 0, misses = 0;
    for (const auto &backend : fleet) {
        cache::ResultCacheStats stats =
            backend->server->resultCache()->stats();
        hits += stats.hits;
        misses += stats.misses;
        point.evictions += stats.evictions;
    }
    point.hitRate = hits + misses
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;

    client.close();
    router.shutdown();
    for (auto &backend : fleet)
        backend->tcp->shutdown();
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader("Network serving scaling",
                       "runtime extra (Sec. V deployment)");

    // --- 1. Loopback overhead ------------------------------------
    // LNN is the cheapest serve preset, which maximises the relative
    // visibility of per-request wire cost.
    const std::string overhead_workload = "LNN";
    serve::LoadgenOptions overhead_load = loadOptions(1.0);

    double local_rps, remote_rps;
    {
        serve::Server server(backendOptions(overhead_workload));
        local_rps =
            serve::runLoadgen(server, overhead_load).throughput();
        server.shutdown();
    }
    {
        serve::Server server(backendOptions(overhead_workload));
        net::TcpServer tcp(server);
        net::ClientOptions client_options;
        client_options.port = tcp.port();
        net::Client client(client_options);
        net::RemoteTarget target(client, {overhead_workload});
        remote_rps =
            serve::runLoadgen(target, overhead_load).throughput();
        client.close();
        tcp.shutdown();
        server.shutdown();
    }
    double wire_ratio =
        local_rps > 0.0 ? remote_rps / local_rps : 0.0;

    util::Table overhead({"transport", "req/s", "vs in-process"});
    overhead.addRow({"in-process", util::fixedStr(local_rps, 1),
                     "1.00x"});
    overhead.addRow({"loopback TCP", util::fixedStr(remote_rps, 1),
                     util::fixedStr(wire_ratio, 2) + "x"});
    overhead.print(std::cout);

    // --- 2. Sharded routing sweep ---------------------------------
    const std::string workload = "NVSA";
    util::Table table({"backends", "req/s", "gain", "cache hit",
                       "evictions", "done"});
    std::vector<Point> points;
    double base = 0.0;
    for (int backends : {1, 2, 4}) {
        Point point = measureSharded(workload, backends);
        if (backends == 1)
            base = point.throughput;
        double gain = base > 0.0 ? point.throughput / base : 0.0;
        table.addRow({std::to_string(point.backends),
                      util::fixedStr(point.throughput, 1),
                      util::fixedStr(gain, 2) + "x",
                      util::fixedStr(point.hitRate * 100.0, 1) + "%",
                      std::to_string(point.evictions),
                      std::to_string(point.completed)});
        points.push_back(point);
    }
    std::cout << "\n";
    table.print(std::cout);

    double gain_1_to_4 =
        base > 0.0 ? points.back().throughput / base : 0.0;
    bool pass = gain_1_to_4 >= 1.5;
    std::cout
        << "\nEach backend's result cache holds ~1/3 of the seed "
           "universe; consistent-hash affinity makes N backends an "
           "N-way cache shard. Acceptance bar: >= 1.5x throughput "
           "from 1 to 4 backends — measured "
        << util::fixedStr(gain_1_to_4, 2) << "x ("
        << (pass ? "pass" : "FAIL") << ").\n";

    std::ostringstream json;
    json << "{\"bench\":\"scaling_net\",\"overhead\":{"
         << "\"in_process_rps\":" << local_rps
         << ",\"loopback_rps\":" << remote_rps
         << ",\"ratio\":" << wire_ratio << "},\"scaling\":[";
    for (size_t i = 0; i < points.size(); i++)
        json << (i ? "," : "") << "{\"backends\":"
             << points[i].backends << ",\"throughput\":"
             << points[i].throughput << ",\"hit_rate\":"
             << points[i].hitRate << ",\"evictions\":"
             << points[i].evictions << "}";
    json << "],\"gain_1_to_4\":" << gain_1_to_4
         << ",\"pass\":" << (pass ? "true" : "false") << "}";
    std::cout << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return pass ? 0 : 1;
}
