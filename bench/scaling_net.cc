/**
 * @file
 * Network serving scaling: loopback overhead.
 *
 * What does the wire cost (docs/DESIGN.md §7h)? The same server is
 * driven by the same closed-loop load twice — in-process through
 * ServerTarget, and over a loopback TCP connection through
 * net::Client — and the throughput ratio is the protocol + socket
 * overhead. Reported, not gated: loopback RTT varies across machines.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime, motivated by the deployment recommendations of Sec. V.
 */

#include <iostream>
#include <sstream>
#include <string>

#include "common.hh"
#include "net/client.hh"
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

/** One worker with the result cache on. For a seed-insensitive
 *  workload every request after the first is a cache hit, so the
 *  run drops out and the ratio isolates per-request wire cost. */
serve::ServerOptions
serverOptions(const std::string &workload)
{
    serve::ServerOptions options;
    options.workloads = {workload};
    options.workers = 1;
    options.factory = serve::serveFactory;
    options.resultCache = true;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader("Network serving scaling",
                       "runtime extra (Sec. V deployment)");

    // LNN is the cheapest serve preset, which maximises the relative
    // visibility of per-request wire cost.
    const std::string workload = "LNN";
    serve::LoadgenOptions load;
    load.openLoop = false;
    load.clients = 8;
    load.durationSeconds = 1.0;

    double local_rps, remote_rps;
    {
        serve::Server server(serverOptions(workload));
        local_rps = serve::runLoadgen(server, load).throughput();
        server.shutdown();
    }
    {
        serve::Server server(serverOptions(workload));
        net::TcpServer tcp(server);
        net::ClientOptions client_options;
        client_options.port = tcp.port();
        net::Client client(client_options);
        net::RemoteTarget target(client, {workload});
        remote_rps = serve::runLoadgen(target, load).throughput();
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

    std::ostringstream json;
    json << "{\"bench\":\"scaling_net\",\"overhead\":{"
         << "\"in_process_rps\":" << local_rps
         << ",\"loopback_rps\":" << remote_rps
         << ",\"ratio\":" << wire_ratio << "}}";
    std::cout << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return 0;
}
