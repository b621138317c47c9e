/**
 * @file
 * Tail tolerance: hedged requests + circuit breaker vs a slow shard.
 *
 * The failure mode of DESIGN.md §7i: one backend in a sharded ring
 * answers every request, just ~100ms slower than its peers. The slow
 * shard is a delay-decorated replica factory (an unconditional stall
 * before each run()): the failpoint registry is process-global and
 * the server evaluates `serve.worker.delay` in every worker, so an
 * in-process ring scopes slowness by decoration — the spec-armed
 * site covers the multi-process CLI path (CI's loopback smoke) and
 * the exactly-once arm below. Without tail tolerance, the
 * ~1/4 of keys placed on that shard drag the fleet p99 to the full
 * injected delay. With hedging + the latency breaker, a duplicate
 * fires to a healthy ring neighbour after the workload's tracked p95
 * and the breaker routes around the sick shard once its latency EWMA
 * crosses the peer reference.
 *
 * Three gates:
 *  1. p99 with hedging+breaker is >= 2x better than the baseline
 *     (hedging off, breaker statistically inert — the old binary
 *     down-marking behaviour).
 *  2. Scores through the hedged router are byte-identical to direct
 *     replica execution for every seed — first-response-wins is safe
 *     because both responses are the same bytes.
 *  3. Exactly-once: under three seeded mixed fail+delay schedules,
 *     every submitted request's callback fires exactly once.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime (tail-tolerant serving, Sec. V deployment).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/workload.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/tcp_server.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/failpoint.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

constexpr const char *kWorkload = "LNN";
constexpr uint64_t kSeedUniverse = 64;
constexpr int kBackends = 4;
/**
 * The injected slow-shard latency: 100ms of *waiting*, not compute —
 * an order of magnitude above LNN's ~7ms service time, the regime
 * hedging is built for (the duplicate runs while the primary sleeps).
 */
constexpr uint64_t kSlowDelayUs = 100000;
/**
 * Deliberately light load: closed-loop drivers sized so the CPU
 * never saturates (this box may have a single core) — the measured
 * tail must come from the injected delay, not from run-queue
 * contention that hedging could only amplify.
 */
constexpr int kDrivers = 2;
constexpr int kCallsPerDriver = 150;

/**
 * Forwards everything to the wrapped workload, stalling before each
 * run() — the injected sleep that makes one backend slow without
 * changing its answers.
 */
class DelayedWorkload : public core::Workload
{
  public:
    explicit DelayedWorkload(std::unique_ptr<core::Workload> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    core::Paradigm paradigm() const override
    {
        return inner_->paradigm();
    }
    std::string taskDescription() const override
    {
        return inner_->taskDescription();
    }
    void setUp(uint64_t seed) override { inner_->setUp(seed); }
    double
    run() override
    {
        // Latency only, never the score — the stall decides when
        // the answer arrives, not what it is.
        std::this_thread::sleep_for(
            std::chrono::microseconds(kSlowDelayUs));
        return inner_->run();
    }
    void
    reseedEpisodes(uint64_t seed) override
    {
        inner_->reseedEpisodes(seed);
    }
    bool seedSensitive() const override
    {
        return inner_->seedSensitive();
    }
    core::OpGraph opGraph() const override
    {
        return inner_->opGraph();
    }
    uint64_t storageBytes() const override
    {
        return inner_->storageBytes();
    }

  private:
    std::unique_ptr<core::Workload> inner_;
};

serve::ServerOptions
backendOptions(bool slow)
{
    serve::ServerOptions options;
    options.workloads = {kWorkload};
    options.workers = 2;
    // No result cache: a cached answer skips run() and with it the
    // injected delay, which would hide the very tail under test.
    options.resultCache = false;
    if (slow)
        options.factory = [](const std::string &name) {
            return std::make_unique<DelayedWorkload>(
                serve::serveFactory(name));
        };
    else
        options.factory = serve::serveFactory;
    return options;
}

struct Backend
{
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<net::TcpServer> tcp;
};

std::unique_ptr<Backend>
makeBackend(bool slow)
{
    auto backend = std::make_unique<Backend>();
    backend->server =
        std::make_unique<serve::Server>(backendOptions(slow));
    backend->tcp =
        std::make_unique<net::TcpServer>(*backend->server);
    return backend;
}

/** One measured arm of the comparison. */
struct Arm
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t completed = 0;
    uint64_t hedgesSent = 0;
    uint64_t hedgesWon = 0;
    uint64_t cancels = 0;
    uint64_t trips = 0;
    bool byteIdentical = true;
};

net::RouterOptions
routerOptions(bool tail_tolerant)
{
    net::RouterOptions options;
    // Long open window: every half-open probe to the sick shard
    // costs one request the injected delay unless its hedge covers
    // it, so probe sparingly.
    options.retryDownSeconds = 2.0;
    if (tail_tolerant) {
        options.hedging = true;
        options.hedgeMinSamples = 16;
        // Cap the hedge delay between the healthy service time
        // (~7ms — hedging sooner would duplicate every request) and
        // the injected 100ms (the cumulative p95 includes sick-era
        // samples; waiting that long protects nothing).
        options.hedgeMaxDelaySeconds = 0.020;
    } else {
        // Baseline: no hedging, and a breaker that can only trip on
        // hard unreachability (the pre-tail-tolerance router).
        options.hedging = false;
        options.breaker.minSamples =
            std::numeric_limits<uint64_t>::max();
    }
    return options;
}

Arm
measureArm(bool tail_tolerant, std::vector<double> *scores)
{
    std::vector<std::unique_ptr<Backend>> fleet;
    net::RouterOptions router_options =
        routerOptions(tail_tolerant);
    for (int i = 0; i < kBackends; i++) {
        fleet.push_back(makeBackend(/*slow=*/i == 0));
        router_options.backends.push_back(
            "127.0.0.1:" +
            std::to_string(fleet.back()->tcp->port()));
    }
    net::Router router(router_options);

    net::ClientOptions client_options;
    client_options.port = router.port();
    net::Client warm_client(client_options);

    // Warm: one pass over the universe primes every backend's
    // replicas, the router's p95 tracker and (in the tail-tolerant
    // arm) gives the breaker enough samples to judge the sick shard.
    // Scores recorded here also feed the byte-identity gate.
    scores->assign(kSeedUniverse, 0.0);
    Arm arm;
    for (uint64_t seed = 0; seed < kSeedUniverse; seed++) {
        serve::Response response =
            warm_client.call(kWorkload, seed);
        if (response.status != serve::RequestStatus::Ok) {
            arm.byteIdentical = false;
            continue;
        }
        (*scores)[seed] = response.score;
    }
    warm_client.close();

    // Measured phase: closed-loop drivers; latencies are kept raw
    // and sorted afterwards, so the percentiles are exact rather
    // than streaming estimates.
    std::vector<double> latencies;
    std::mutex latency_mu;
    std::atomic<uint64_t> completed{0};
    std::vector<std::thread> drivers;
    for (int d = 0; d < kDrivers; d++)
        drivers.emplace_back([&, d] {
            net::Client client(client_options);
            uint64_t state = 0x9e3779b97f4a7c15ULL * (d + 1);
            std::vector<double> local;
            local.reserve(kCallsPerDriver);
            for (int i = 0; i < kCallsPerDriver; i++) {
                state = state * 6364136223846793005ULL +
                        1442695040888963407ULL;
                uint64_t seed = (state >> 33) % kSeedUniverse;
                auto start = std::chrono::steady_clock::now();
                serve::Response response =
                    client.call(kWorkload, seed);
                double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (response.status == serve::RequestStatus::Ok) {
                    completed.fetch_add(1);
                    local.push_back(seconds);
                    // Repeat seeds must keep reproducing the warm
                    // pass bytes, whichever backend answered.
                    double expected = (*scores)[seed];
                    if (std::memcmp(&response.score, &expected,
                                    sizeof expected) != 0)
                        arm.byteIdentical = false;
                }
            }
            client.close();
            std::lock_guard<std::mutex> lock(latency_mu);
            latencies.insert(latencies.end(), local.begin(),
                             local.end());
        });
    for (auto &driver : drivers)
        driver.join();

    std::sort(latencies.begin(), latencies.end());
    auto quantile = [&latencies](double q) {
        if (latencies.empty())
            return 0.0;
        size_t index = static_cast<size_t>(
            q * static_cast<double>(latencies.size() - 1));
        return latencies[index];
    };
    arm.p50Ms = quantile(0.50) * 1e3;
    arm.p99Ms = quantile(0.99) * 1e3;
    arm.completed = completed.load();
    net::HedgeStats hedges = router.hedgeStats();
    arm.hedgesSent = hedges.hedgesSent;
    arm.hedgesWon = hedges.hedgesWon;
    arm.cancels = hedges.cancelsSent;
    for (const net::BackendStats &stats : router.backendStats())
        arm.trips += stats.downMarks;

    router.shutdown();
    for (auto &backend : fleet)
        backend->tcp->shutdown();
    return arm;
}

/**
 * Exactly-once gate: a seeded mixed fail+delay schedule (worker
 * failures and 20ms worker delays on every backend via the
 * spec-armed sites, plus the always-slow decorated shard), every
 * submitted request's callback must fire exactly once — no loss, no
 * duplication, whatever mix of hedges, cancels and retries the run
 * produced.
 */
bool
exactlyOnceUnder(uint64_t schedule_seed)
{
    std::ostringstream spec;
    spec << "serve.worker.run=0.05@" << schedule_seed
         << ",serve.worker.delay=1.0@" << schedule_seed << "~20000";
    std::string error = util::failpoints::configure(spec.str());
    if (!error.empty()) {
        std::cerr << "failpoint config failed: " << error << "\n";
        std::exit(1);
    }

    std::vector<std::unique_ptr<Backend>> fleet;
    net::RouterOptions router_options =
        routerOptions(/*tail_tolerant=*/true);
    router_options.hedgeMinSamples = 4; // Hedge early and often.
    for (int i = 0; i < kBackends; i++) {
        fleet.push_back(makeBackend(/*slow=*/i == 0));
        router_options.backends.push_back(
            "127.0.0.1:" +
            std::to_string(fleet.back()->tcp->port()));
    }
    net::Router router(router_options);

    net::ClientOptions client_options;
    client_options.port = router.port();
    net::Client client(client_options);

    constexpr int kRequests = 200;
    std::vector<std::atomic<int>> callbacks(kRequests);
    for (auto &count : callbacks)
        count.store(0);

    uint64_t submitted = 0;
    for (int i = 0; i < kRequests; i++) {
        serve::RequestStatus status = client.submitSeeded(
            kWorkload, static_cast<uint64_t>(i) % kSeedUniverse, 0,
            [&callbacks, i](const serve::Response &) {
                callbacks[i].fetch_add(1);
            });
        if (status == serve::RequestStatus::Ok)
            submitted++;
        else
            callbacks[i].store(-1); // Rejected: no callback due.
    }

    // Drain: every admitted request must terminate (answer, hedge
    // winner, cancel echo or disconnect failure all count).
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    bool drained = false;
    while (std::chrono::steady_clock::now() < deadline) {
        uint64_t done = 0;
        for (int i = 0; i < kRequests; i++)
            if (callbacks[i].load() != 0)
                done++;
        if (done == static_cast<uint64_t>(kRequests)) {
            drained = true;
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }

    // Settle, then check for duplicates: nothing may fire twice.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    bool exactly_once = drained;
    for (int i = 0; i < kRequests; i++) {
        int count = callbacks[i].load();
        if (count != 1 && count != -1)
            exactly_once = false;
    }

    client.close();
    router.shutdown();
    for (auto &backend : fleet)
        backend->tcp->shutdown();
    util::failpoints::configure("");
    return exactly_once;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader("Tail-tolerant serving",
                       "runtime extra (DESIGN.md §7i)");

    std::cout << "one of " << kBackends << " backends stalls "
              << kSlowDelayUs / 1000 << "ms before every dispatch\n\n";

    std::vector<double> baseline_scores, hedged_scores;
    Arm baseline = measureArm(false, &baseline_scores);
    Arm hedged = measureArm(true, &hedged_scores);

    util::Table table({"arm", "p50", "p99", "done", "hedges",
                       "hedge wins", "cancels", "trips"});
    table.addRow({"baseline (no hedging)",
                  util::fixedStr(baseline.p50Ms, 2) + "ms",
                  util::fixedStr(baseline.p99Ms, 2) + "ms",
                  std::to_string(baseline.completed),
                  std::to_string(baseline.hedgesSent),
                  std::to_string(baseline.hedgesWon),
                  std::to_string(baseline.cancels),
                  std::to_string(baseline.trips)});
    table.addRow({"hedging + breaker",
                  util::fixedStr(hedged.p50Ms, 2) + "ms",
                  util::fixedStr(hedged.p99Ms, 2) + "ms",
                  std::to_string(hedged.completed),
                  std::to_string(hedged.hedgesSent),
                  std::to_string(hedged.hedgesWon),
                  std::to_string(hedged.cancels),
                  std::to_string(hedged.trips)});
    table.print(std::cout);

    double ratio = hedged.p99Ms > 0.0
                       ? baseline.p99Ms / hedged.p99Ms
                       : 0.0;
    bool p99_pass = ratio >= 2.0;

    // Byte identity: both arms individually stable, and identical
    // to each other and to direct replica execution.
    bool byte_identical =
        baseline.byteIdentical && hedged.byteIdentical;
    auto replica = serve::serveFactory(kWorkload);
    replica->setUp(serve::ServerOptions{}.modelSeed);
    for (uint64_t seed = 0; seed < kSeedUniverse; seed++) {
        replica->reseedEpisodes(seed);
        double direct = replica->run();
        if (std::memcmp(&hedged_scores[seed], &direct,
                        sizeof direct) != 0 ||
            std::memcmp(&baseline_scores[seed], &direct,
                        sizeof direct) != 0)
            byte_identical = false;
    }

    bool exactly_once = true;
    for (uint64_t schedule : {101ULL, 202ULL, 303ULL})
        if (!exactlyOnceUnder(schedule))
            exactly_once = false;

    bool pass = p99_pass && byte_identical && exactly_once;
    std::cout << "\np99 improvement (baseline / hedged): "
              << util::fixedStr(ratio, 2) << "x (need >= 2.0x, "
              << (p99_pass ? "pass" : "FAIL") << ")\n"
              << "byte-identical scores: "
              << (byte_identical ? "pass" : "FAIL") << "\n"
              << "exactly-once callbacks under 3 fail+delay "
                 "schedules: "
              << (exactly_once ? "pass" : "FAIL") << "\n";

    std::ostringstream json;
    json << "{\"bench\":\"scaling_tail\",\"p99_baseline_ms\":"
         << baseline.p99Ms << ",\"p99_hedged_ms\":" << hedged.p99Ms
         << ",\"ratio\":" << ratio
         << ",\"hedges_sent\":" << hedged.hedgesSent
         << ",\"hedges_won\":" << hedged.hedgesWon
         << ",\"cancels\":" << hedged.cancels
         << ",\"breaker_trips\":" << hedged.trips
         << ",\"byte_identical\":"
         << (byte_identical ? "true" : "false")
         << ",\"exactly_once\":" << (exactly_once ? "true" : "false")
         << ",\"pass\":" << (pass ? "true" : "false") << "}";
    std::cout << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return pass ? 0 : 1;
}
