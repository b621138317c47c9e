/**
 * @file
 * Chaos tier: deterministic fault injection against the serving
 * runtime.
 *
 * Every test arms a seeded failpoint schedule (an exact function of
 * the spec string — see util/failpoint.hh) and asserts the resilience
 * invariants the server promises under faults:
 *
 *  - exactly-once callbacks: every admitted request is answered once,
 *    no request is answered twice, nothing is lost on drain;
 *  - byte-identical scores: any Ok response carries the same score a
 *    fault-free server returns for that seed (retried and stale
 *    responses included — the determinism contract makes the stale
 *    fallback byte-exact);
 *  - the supervisor replaces poisoned replicas without dropping work;
 *  - a clean drain: shutdown() completes with faults still armed.
 *
 * Runs under TSan in CI; the tests use no sleeps for correctness,
 * only condition-variable waits on completion counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/failpoint.hh"
#include "workloads/register.hh"

#include "../serve/fake_workload.hh"

namespace
{

using namespace nsbench;
namespace fp = util::failpoints;

/** The FakeWorkload's pure score for (modelSeed, episodeSeed). */
double
fakeScore(uint64_t model_seed, uint64_t episode_seed,
          bool seed_sensitive)
{
    uint64_t mix = model_seed * 1000003ULL +
                   (seed_sensitive ? episode_seed * 97ULL : 0);
    return static_cast<double>(mix % 100000) / 100000.0;
}

/** Every chaos test starts and ends disarmed. */
class Chaos : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }

    void SetUp() override { fp::reset(); }
    void TearDown() override { fp::reset(); }

    /** configure() that fails the test on a parse error. */
    static void
    arm(const std::string &spec)
    {
        std::string error = fp::configure(spec);
        ASSERT_EQ(error, "") << "spec: " << spec;
    }

    static serve::ServerOptions
    fakeOptions(tests::FakeCounters &counters, bool seed_sensitive)
    {
        serve::ServerOptions options;
        options.workloads = {"Fake"};
        options.workers = 2;
        options.factory = [&counters, seed_sensitive](
                              const std::string &) {
            return std::make_unique<tests::FakeWorkload>(
                counters, seed_sensitive);
        };
        return options;
    }
};

// --- Spec parsing & schedule determinism --------------------------

TEST_F(Chaos, ParseAcceptsFullSpec)
{
    std::map<std::string, fp::SiteSpec> sites;
    std::string error = fp::parse(
        "serve.worker.run=0.25@7x20s2,cache.result.insert=1", &sites);
    EXPECT_EQ(error, "");
    ASSERT_EQ(sites.size(), 2u);
    const fp::SiteSpec &run = sites.at("serve.worker.run");
    EXPECT_DOUBLE_EQ(run.probability, 0.25);
    EXPECT_EQ(run.seed, 7u);
    EXPECT_EQ(run.limit, 20u);
    EXPECT_EQ(run.skip, 2u);
    const fp::SiteSpec &insert = sites.at("cache.result.insert");
    EXPECT_DOUBLE_EQ(insert.probability, 1.0);
    EXPECT_EQ(insert.limit, 0u);
}

TEST_F(Chaos, ParseRejectsMalformedSpecs)
{
    EXPECT_NE(fp::parse("not-a-site=0.5", nullptr), "");
    EXPECT_NE(fp::parse("serve.worker.run", nullptr), "");
    EXPECT_NE(fp::parse("serve.worker.run=1.5", nullptr), "");
    EXPECT_NE(fp::parse("serve.worker.run=-0.1", nullptr), "");
    EXPECT_NE(fp::parse("serve.worker.run=abc", nullptr), "");
    EXPECT_NE(
        fp::parse("serve.worker.run=0.5,serve.worker.run=0.5",
                  nullptr),
        "");
    // configure() must leave the registry disarmed on error.
    EXPECT_NE(fp::configure("bogus=1"), "");
    EXPECT_FALSE(fp::armed());
}

TEST_F(Chaos, ScheduleIsAPureFunctionOfTheSpec)
{
    const std::string spec = "serve.worker.run=0.3@11";
    auto schedule = [&] {
        arm(spec);
        std::vector<bool> fires;
        for (int i = 0; i < 200; i++)
            fires.push_back(fp::evaluate(fp::sites::kWorkerRun));
        return fires;
    };
    std::vector<bool> first = schedule();
    std::vector<bool> second = schedule();
    EXPECT_EQ(first, second);
    // The schedule is non-trivial: some evaluations fire, some don't.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), true), 200);

    // A different seed yields a different schedule (overwhelmingly).
    arm("serve.worker.run=0.3@12");
    std::vector<bool> other;
    for (int i = 0; i < 200; i++)
        other.push_back(fp::evaluate(fp::sites::kWorkerRun));
    EXPECT_NE(first, other);
}

TEST_F(Chaos, SkipAndLimitBoundTheSchedule)
{
    arm("serve.worker.run=1@3x2s3");
    std::vector<bool> fires;
    for (int i = 0; i < 10; i++)
        fires.push_back(fp::evaluate(fp::sites::kWorkerRun));
    // p=1: fires exactly on evaluations 4 and 5 (after a skip of 3,
    // capped at 2 fires).
    std::vector<bool> expected{false, false, false, true, true,
                               false, false, false, false, false};
    EXPECT_EQ(fires, expected);
    auto stats = fp::stats();
    EXPECT_EQ(stats.at("serve.worker.run").evaluations, 10u);
    EXPECT_EQ(stats.at("serve.worker.run").fires, 2u);
}

TEST_F(Chaos, DisarmedSitesNeverFireAndCostNothing)
{
    EXPECT_FALSE(fp::armed());
    for (int i = 0; i < 100; i++)
        EXPECT_FALSE(NSBENCH_FAILPOINT(fp::sites::kWorkerRun));
    // Sites not named in the spec stay silent even when armed.
    arm("cache.result.insert=1");
    EXPECT_FALSE(fp::evaluate(fp::sites::kWorkerRun));
}

// --- Exactly-once delivery under seeded schedules -----------------

/**
 * Submits @p total requests against a fake fleet under the given
 * fault spec and asserts the exactly-once and byte-identity
 * invariants. Returns the server's total metrics snapshot.
 *
 * Requests go out in waves of 16 over an 8-seed universe, each wave
 * answered before the next is sent. Single-flight merges duplicates
 * that are in flight together, so each wave starts fresh flights:
 * the number of leaders — and with it how often the admission and
 * worker sites are evaluated — has a floor of one per key per wave
 * rather than depending on how fast the workers drain the queue.
 */
serve::WorkloadMetrics
runExactlyOnce(const std::string &spec, bool seed_sensitive,
               int total, serve::ServerOptions options)
{
    std::string error = fp::configure(spec);
    EXPECT_EQ(error, "") << "spec: " << spec;

    std::vector<std::atomic<int>> delivered(
        static_cast<size_t>(total));
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 0;
    uint64_t admitted = 0;

    serve::WorkloadMetrics metrics;
    {
        serve::Server server(std::move(options));
        for (int i = 0; i < total; i++) {
            if (i % 16 == 0) {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return outstanding == 0; });
            }
            uint64_t seed = static_cast<uint64_t>(i % 8);
            {
                std::lock_guard<std::mutex> lock(mu);
                outstanding++;
            }
            serve::RequestStatus status = server.submit(
                "Fake", seed,
                [&, i, seed](const serve::Response &response) {
                    delivered[static_cast<size_t>(i)].fetch_add(1);
                    if (response.status == serve::RequestStatus::Ok) {
                        EXPECT_EQ(response.score,
                                  fakeScore(42, seed,
                                            seed_sensitive))
                            << "request " << i;
                    }
                    std::lock_guard<std::mutex> lock(mu);
                    if (--outstanding == 0)
                        cv.notify_all();
                });
            if (status == serve::RequestStatus::Ok) {
                admitted++;
            } else {
                std::lock_guard<std::mutex> lock(mu);
                outstanding--;
            }
        }
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return outstanding == 0; });
        }
        server.shutdown();
        metrics = server.metrics().total();
    }

    // Exactly once: every admitted request was answered one time;
    // every rejected request was answered zero times.
    uint64_t answered = 0;
    for (int i = 0; i < total; i++) {
        int count = delivered[static_cast<size_t>(i)].load();
        EXPECT_LE(count, 1) << "request " << i << " answered twice";
        answered += static_cast<uint64_t>(count);
    }
    EXPECT_EQ(answered, admitted);
    return metrics;
}

TEST_F(Chaos, ExactlyOnceUnderTransientRunFaults)
{
    tests::FakeCounters counters;
    auto metrics = runExactlyOnce(
        "serve.worker.run=0.3@101", /*seed_sensitive=*/true,
        /*total=*/160, fakeOptions(counters, true));
    EXPECT_GT(metrics.workerFaults, 0u);
    EXPECT_GT(metrics.retries, 0u);
    EXPECT_EQ(metrics.completed + metrics.failed +
                  metrics.expired + metrics.rejected(),
              metrics.offered);
}

TEST_F(Chaos, ExactlyOnceUnderMixedFaultSchedule)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, true);
    options.maxRetries = 4;
    auto metrics = runExactlyOnce(
        "serve.queue.trypush=0.05@7,serve.queue.pop=0.1@8,"
        "serve.worker.run=0.2@10,serve.callback=0.1@11",
        /*seed_sensitive=*/true, /*total=*/160, std::move(options));
    EXPECT_GT(metrics.workerFaults, 0u);
    EXPECT_GT(metrics.callbackFailures, 0u);
    // The callback failpoint throws *after* delivery, so contained
    // callback faults never subtract from completions.
    EXPECT_EQ(metrics.failed, 0u);
}

TEST_F(Chaos, ExactlyOnceUnderASecondSeededSchedule)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, false);
    options.maxRetries = 6;
    auto metrics = runExactlyOnce(
        "serve.worker.run=0.4@2024,serve.admission.shed=0.05@5",
        /*seed_sensitive=*/false, /*total=*/160, std::move(options));
    EXPECT_GT(metrics.workerFaults, 0u);
    EXPECT_GT(metrics.rejectedOverload, 0u);
}

// --- Supervisor, stale fallback, terminal failure -----------------

TEST_F(Chaos, SupervisorReplacesPoisonedReplicas)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, true);
    options.maxRetries = 4;
    uint64_t setUpsBefore = 0;
    arm("serve.worker.crash=1@13x3");

    serve::WorkloadMetrics metrics;
    {
        serve::Server server(std::move(options));
        setUpsBefore = counters.setUps.load();
        for (int i = 0; i < 20; i++) {
            serve::Response response = server.call("Fake", 1);
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            EXPECT_EQ(response.score, fakeScore(42, 1, true));
        }
        metrics = server.metrics().total();
    }
    EXPECT_EQ(metrics.completed, 20u);
    EXPECT_EQ(metrics.failed, 0u);
    EXPECT_EQ(metrics.replicasReplaced, 3u);
    // Each replacement re-ran setUp on a fresh replica.
    EXPECT_EQ(counters.setUps.load(), setUpsBefore + 3);
}

TEST_F(Chaos, StaleFallbackServesCachedScoreAfterRetriesExhaust)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, true);
    options.resultCache = true;
    // Fallback-only cache mode: admission never answers from the
    // cache, so the faulted request must reach a worker and take the
    // serve-stale path deterministically.
    options.cacheAdmissionLookup = false;
    options.maxRetries = 1;

    serve::Server server(std::move(options));
    // Prime the cache for seed 5 fault-free.
    serve::Response warm = server.call("Fake", 5);
    ASSERT_EQ(warm.status, serve::RequestStatus::Ok);

    // Every subsequent run() attempt fails.
    arm("serve.worker.run=1@17");
    serve::Response stale = server.call("Fake", 5);
    EXPECT_EQ(stale.status, serve::RequestStatus::Ok);
    EXPECT_TRUE(stale.stale);
    EXPECT_TRUE(stale.cached);
    EXPECT_EQ(stale.retries, 1);
    // Byte-exact by the determinism contract.
    EXPECT_EQ(stale.score, warm.score);

    // A key never completed has no stale copy: terminal failure.
    serve::Response failed = server.call("Fake", 6);
    EXPECT_EQ(failed.status, serve::RequestStatus::Failed);
    EXPECT_EQ(failed.retries, 1);

    serve::WorkloadMetrics metrics = server.metrics().total();
    EXPECT_EQ(metrics.staleServed, 1u);
    EXPECT_EQ(metrics.failed, 1u);
}

TEST_F(Chaos, FailedRequestsWithoutCacheAreTerminal)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, true);
    options.maxRetries = 2;
    arm("serve.worker.run=1@19");

    serve::Server server(std::move(options));
    serve::Response response = server.call("Fake", 1);
    EXPECT_EQ(response.status, serve::RequestStatus::Failed);
    EXPECT_EQ(response.retries, 2);
    serve::WorkloadMetrics metrics = server.metrics().total();
    EXPECT_EQ(metrics.failed, 1u);
    EXPECT_EQ(metrics.retries, 2u);
    EXPECT_EQ(metrics.workerFaults, 3u); // initial try + 2 retries
    EXPECT_LT(metrics.successRate(), 1.0);
}

// --- Real workloads: byte identity through the fault layer --------

TEST_F(Chaos, FaultedServerScoresMatchFaultFreeScores)
{
    auto scoresUnder = [&](const std::string &spec) {
        fp::reset();
        if (!spec.empty()) {
            std::string error = fp::configure(spec);
            EXPECT_EQ(error, "");
        }
        serve::ServerOptions options;
        options.workloads = {"LNN"};
        options.workers = 2;
        options.maxRetries = 8;
        options.factory = serve::serveFactory;
        serve::Server server(std::move(options));
        std::map<uint64_t, double> scores;
        for (uint64_t seed = 0; seed < 12; seed++) {
            serve::Response response = server.call("LNN", seed);
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            scores[seed] = response.score;
        }
        return scores;
    };

    std::map<uint64_t, double> clean = scoresUnder("");
    std::map<uint64_t, double> faulted = scoresUnder(
        "serve.worker.run=0.3@23,serve.worker.crash=0.05@29");
    // Byte-identical: retried and replica-rebuilt executions return
    // exactly the score a fault-free server returns.
    EXPECT_EQ(clean, faulted);
}

TEST_F(Chaos, PipelinedServerKeepsInvariantsUnderFaults)
{
    // Intra-replica pipelining must not weaken any chaos invariant:
    // faults fire on the pipelined path itself, and every request is
    // still answered exactly once with the fault-free score. NVSA is
    // staged and seed-sensitive, so its distinct seeds queued
    // together form a pipelined group; a gated fake request holds
    // the only worker while they queue, so the group forms by
    // construction.
    int pipelined = 0;
    std::map<std::string, fp::SiteStats> stats;
    auto scoresUnder = [&](const std::string &spec, int depth) {
        fp::reset();
        if (!spec.empty()) {
            std::string error = fp::configure(spec);
            EXPECT_EQ(error, "");
        }
        tests::FakeCounters counters;
        serve::ServerOptions options;
        options.workloads = {"Gate", "NVSA"};
        options.workers = 1;
        options.maxRetries = 8;
        options.pipelineDepth = depth;
        options.factory = [&counters](const std::string &name)
            -> std::unique_ptr<core::Workload> {
            if (name == "Gate")
                return std::make_unique<tests::FakeWorkload>(counters,
                                                             true);
            return serve::serveFactory(name);
        };
        serve::Server server(std::move(options));
        counters.gate.close();
        std::promise<serve::Response> held;
        EXPECT_EQ(server.submit("Gate", 0,
                                [&held](const serve::Response &r) {
                                    held.set_value(r);
                                }),
                  serve::RequestStatus::Ok);
        const int total = 12;
        std::vector<std::promise<serve::Response>> promises(total);
        std::vector<std::future<serve::Response>> futures;
        for (int i = 0; i < total; i++) {
            auto *promise = &promises[static_cast<size_t>(i)];
            futures.push_back(promise->get_future());
            EXPECT_EQ(
                server.submit("NVSA", static_cast<uint64_t>(i % 6),
                              [promise](const serve::Response &r) {
                                  // A second delivery would throw
                                  // promise_already_satisfied here.
                                  promise->set_value(r);
                              }),
                serve::RequestStatus::Ok);
        }
        counters.gate.open();
        // The held request's own outcome is beside the point (faults
        // may fail it); it only has to be answered.
        held.get_future().wait();
        std::map<uint64_t, double> scores;
        pipelined = 0;
        for (int i = 0; i < total; i++) {
            serve::Response response =
                futures[static_cast<size_t>(i)].get();
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            // Clean, the six distinct seeds run as one pipelined
            // group; a serial server never pipelines.
            if (spec.empty()) {
                EXPECT_EQ(response.pipelined, depth > 0)
                    << "request " << i;
            }
            pipelined += response.pipelined;
            uint64_t seed = static_cast<uint64_t>(i % 6);
            auto [found, inserted] =
                scores.emplace(seed, response.score);
            if (!inserted) {
                EXPECT_EQ(found->second, response.score)
                    << "seed " << seed;
            }
        }
        server.shutdown();
        stats = fp::stats();
        return scores;
    };

    auto clean_serial = scoresUnder("", 0);
    auto clean_piped = scoresUnder("", 2);
    auto faulted_piped = scoresUnder(
        "serve.worker.run=0.3@23,serve.worker.crash=0.3@29", 2);
    // Armed, faults fired at the run and crash sites, and requests
    // that passed them still ran as pipelined groups.
    EXPECT_GT(pipelined, 0);
    for (const char *site : {"serve.worker.run", "serve.worker.crash"}) {
        EXPECT_GT(stats[site].fires, 0u)
            << site << ": " << stats[site].evaluations
            << " evaluations";
    }
    EXPECT_EQ(clean_serial, clean_piped);
    EXPECT_EQ(clean_serial, faulted_piped);
}

// --- Clean drain with faults still armed --------------------------

TEST_F(Chaos, ShutdownDrainsCleanlyUnderFaults)
{
    tests::FakeCounters counters;
    serve::ServerOptions options = fakeOptions(counters, true);
    arm("serve.queue.pop=0.2@37,serve.worker.run=0.2@41,"
        "serve.callback=0.2@43");

    std::atomic<int> answered{0};
    uint64_t admitted = 0;
    {
        serve::Server server(std::move(options));
        for (int i = 0; i < 64; i++) {
            serve::RequestStatus status = server.submit(
                "Fake", static_cast<uint64_t>(i % 4),
                [&](const serve::Response &) {
                    answered.fetch_add(1);
                });
            if (status == serve::RequestStatus::Ok)
                admitted++;
        }
        // Shut down immediately: the drain must still answer every
        // admitted request exactly once, faults and all.
        server.shutdown();
    }
    EXPECT_EQ(static_cast<uint64_t>(answered.load()), admitted);
}

} // namespace
