/**
 * @file
 * Server behaviour tests over the fake workload: admission control,
 * deadlines, single-flight sharing, graceful drain, and callback
 * delivery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fake_workload.hh"
#include "serve/server.hh"

namespace
{

using namespace nsbench;
using namespace std::chrono_literals;
using tests::FakeCounters;
using tests::FakeWorkload;

serve::ServerOptions
fakeOptions(FakeCounters &counters, bool seed_sensitive,
            int sleep_ms = 0)
{
    serve::ServerOptions options;
    options.workloads = {"Fake"};
    options.workers = 1;
    options.factory = [&counters, seed_sensitive,
                       sleep_ms](const std::string &) {
        return std::make_unique<FakeWorkload>(counters,
                                              seed_sensitive,
                                              sleep_ms);
    };
    return options;
}

/** Collects tagged responses; wait() blocks until @p n arrived. */
struct Answers
{
    std::mutex mu;
    std::condition_variable cv;
    std::map<int, serve::Response> byTag;
    int delivered = 0;

    serve::Callback
    tag(int t)
    {
        return [this, t](const serve::Response &response) {
            std::lock_guard<std::mutex> lock(mu);
            byTag.emplace(t, response);
            delivered++;
            cv.notify_all();
        };
    }

    void
    wait(int n)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return delivered >= n; });
    }
};

TEST(ServeServer, PrewarmsOneReplicaPerWorkerBeforeServing)
{
    FakeCounters counters;
    auto options = fakeOptions(counters, true);
    options.workers = 3;
    serve::Server server(std::move(options));
    // The constructor blocks until pre-warm completes: one setUp per
    // (worker, workload) and no runs yet.
    EXPECT_EQ(counters.setUps.load(), 3u);
    EXPECT_EQ(counters.runs.load(), 0u);
}

TEST(ServeServer, CallReturnsTheDeterministicScore)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));

    serve::Response first = server.call("Fake", 7);
    serve::Response again = server.call("Fake", 7);
    serve::Response other = server.call("Fake", 8);

    EXPECT_EQ(first.status, serve::RequestStatus::Ok);
    EXPECT_EQ(first.score, again.score);
    EXPECT_NE(first.score, other.score);
    EXPECT_GT(first.latencySeconds, 0.0);
    EXPECT_GE(first.latencySeconds, first.queueSeconds);
}

TEST(ServeServer, RejectsUnknownWorkload)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    serve::Response response = server.call("NoSuch", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnknownWorkload);
    EXPECT_EQ(
        server.metrics().workload("NoSuch").rejectedUnknown, 1u);
}

TEST(ServeServer, RejectsDeadOnArrivalDeadline)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    serve::Response response = server.call(
        "Fake", 1, serve::ServeClock::now() - 1ms);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedDeadline);
    EXPECT_EQ(counters.runs.load(), 0u);
}

TEST(ServeServer, ExpiresRequestsThatOutwaitTheirDeadline)
{
    FakeCounters counters;
    // 30 ms of service per run on a single worker: the second
    // request's 5 ms deadline expires while it queues.
    serve::Server server(fakeOptions(counters, true, 30));

    std::atomic<int> expired{0};
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 2;
    auto callback = [&](const serve::Response &response) {
        if (response.status == serve::RequestStatus::Expired)
            expired.fetch_add(1);
        else
            done.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        if (--outstanding == 0)
            cv.notify_all();
    };

    ASSERT_EQ(server.submit("Fake", 1, callback),
              serve::RequestStatus::Ok);
    ASSERT_EQ(server.submit("Fake", 2, callback,
                            serve::ServeClock::now() + 5ms),
              serve::RequestStatus::Ok);
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding == 0; });
    }
    EXPECT_EQ(done.load(), 1);
    EXPECT_EQ(expired.load(), 1);
    EXPECT_EQ(server.metrics().workload("Fake").expired, 1u);
}

TEST(ServeServer, BackpressureRejectsWhenQueueFills)
{
    FakeCounters counters;
    auto options = fakeOptions(counters, true, 50);
    options.queueCapacity = 2;
    serve::Server server(std::move(options));

    // Saturate the single slow worker, then overfill the queue.
    std::atomic<int> completions{0};
    auto callback = [&](const serve::Response &) {
        completions.fetch_add(1);
    };
    int admitted = 0;
    int rejected = 0;
    for (uint64_t i = 0; i < 12; i++) {
        serve::RequestStatus status =
            server.submit("Fake", i, callback);
        if (status == serve::RequestStatus::Ok)
            admitted++;
        else if (status == serve::RequestStatus::RejectedQueueFull)
            rejected++;
    }
    EXPECT_GT(rejected, 0);
    server.shutdown();
    // Graceful drain: every admitted request completed, rejected
    // requests never saw a callback.
    EXPECT_EQ(completions.load(), admitted);
    EXPECT_EQ(server.metrics().workload("Fake").rejectedQueueFull,
              static_cast<uint64_t>(rejected));
}

TEST(ServeServer, CoalescesSameSeedRequests)
{
    // Cache off: single-flight alone merges the duplicates. The gated
    // first request holds the only worker while eight requests for
    // two seeds queue behind it, so all of them are in flight at
    // once by construction.
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    Answers answers;
    counters.gate.close();
    ASSERT_EQ(server.submit("Fake", 99, answers.tag(-1)),
              serve::RequestStatus::Ok);
    for (int i = 0; i < 8; i++)
        ASSERT_EQ(server.submit("Fake", static_cast<uint64_t>(i % 2),
                                answers.tag(i)),
                  serve::RequestStatus::Ok);
    counters.gate.open();
    answers.wait(9);

    // The held request plus one run per distinct seed.
    EXPECT_EQ(counters.runs.load(), 3u);
    for (int i = 0; i < 8; i++) {
        const serve::Response &response = answers.byTag.at(i);
        EXPECT_EQ(response.status, serve::RequestStatus::Ok);
        EXPECT_EQ(response.score, answers.byTag.at(i % 2).score);
        EXPECT_EQ(response.shared, 4);
    }
    EXPECT_NE(answers.byTag.at(0).score, answers.byTag.at(1).score);
    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.singleFlightShared, 6u);
    EXPECT_EQ(m.executions, 3u);
    EXPECT_EQ(m.completed, 9u);
}

TEST(ServeServer, SeedInsensitiveRequestsShareOneRun)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, /*seed_sensitive=*/false));
    Answers answers;
    counters.gate.close();
    // The held request is itself the leader of the workload's one
    // key: eight more with distinct seeds all park behind it.
    ASSERT_EQ(server.submit("Fake", 100, answers.tag(-1)),
              serve::RequestStatus::Ok);
    for (int i = 0; i < 8; i++)
        ASSERT_EQ(server.submit("Fake", static_cast<uint64_t>(i),
                                answers.tag(i)),
                  serve::RequestStatus::Ok);
    counters.gate.open();
    answers.wait(9);

    // Nine distinct seeds, but the workload ignores them: one run,
    // and never a reseed.
    EXPECT_EQ(counters.runs.load(), 1u);
    EXPECT_EQ(counters.reseeds.load(), 0u);
    for (const auto &[tag, response] : answers.byTag) {
        EXPECT_EQ(response.status, serve::RequestStatus::Ok);
        EXPECT_EQ(response.score, answers.byTag.at(-1).score);
    }
    EXPECT_EQ(server.metrics().workload("Fake").singleFlightShared,
              8u);
}

TEST(ServeServer, CacheOffMergesOnlyConcurrentDuplicates)
{
    FakeCounters counters;
    auto options = fakeOptions(counters, true);
    serve::Server server(std::move(options));
    ASSERT_EQ(server.resultCache(), nullptr);

    // Six concurrent equal requests: one run.
    Answers answers;
    counters.gate.close();
    for (int i = 0; i < 6; i++)
        ASSERT_EQ(server.submit("Fake", 3, answers.tag(i)),
                  serve::RequestStatus::Ok);
    counters.gate.open();
    answers.wait(6);
    EXPECT_EQ(counters.runs.load(), 1u);
    EXPECT_EQ(server.metrics().workload("Fake").singleFlightShared,
              5u);

    // Without the cache nothing is remembered once a flight lands:
    // each sequential repeat runs again.
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(server.call("Fake", 3).score,
                  answers.byTag.at(0).score);
    EXPECT_EQ(counters.runs.load(), 4u);
    EXPECT_DOUBLE_EQ(
        server.metrics().workload("Fake").shareFactor(), 9.0 / 4.0);
}

TEST(ServeServer, PrunedLeaderAnswersOnlyItself)
{
    // A queued single-flight leader that is canceled (its client sent
    // a wire Cancel) or outlives its deadline answers Canceled /
    // Expired itself, but its followers — no cancel token, no
    // deadline — still get the shared run. The gate holds the only worker so the leader and
    // its follower are both queued when the leader is pruned.
    for (bool cache : {false, true}) {
        SCOPED_TRACE(cache ? "cache on" : "cache off");
        FakeCounters counters;
        auto options = fakeOptions(counters, true);
        options.resultCache = cache;
        serve::Server server(std::move(options));
        Answers answers;
        counters.gate.close();
        ASSERT_EQ(server.submit("Fake", 1, answers.tag(0)),
                  serve::RequestStatus::Ok);

        auto cancel = std::make_shared<std::atomic<bool>>(false);
        ASSERT_EQ(server.submit("Fake", 7, answers.tag(1),
                                serve::noDeadline(), cancel),
                  serve::RequestStatus::Ok);
        ASSERT_EQ(server.submit("Fake", 7, answers.tag(2)),
                  serve::RequestStatus::Ok);

        auto deadline = serve::ServeClock::now() + 20ms;
        ASSERT_EQ(server.submit("Fake", 8, answers.tag(3), deadline),
                  serve::RequestStatus::Ok);
        ASSERT_EQ(server.submit("Fake", 8, answers.tag(4)),
                  serve::RequestStatus::Ok);

        cancel->store(true);
        // The worker stays held on the gate until the short deadline
        // has certainly passed.
        std::this_thread::sleep_until(deadline + 1ms);
        counters.gate.open();
        answers.wait(5);

        EXPECT_EQ(answers.byTag.at(1).status,
                  serve::RequestStatus::Canceled);
        EXPECT_EQ(answers.byTag.at(3).status,
                  serve::RequestStatus::Expired);
        for (int follower : {2, 4}) {
            const serve::Response &response =
                answers.byTag.at(follower);
            EXPECT_EQ(response.status, serve::RequestStatus::Ok)
                << "follower " << follower;
            EXPECT_EQ(response.shared, 1) << "follower " << follower;
        }
        EXPECT_EQ(answers.delivered, 5);
        // The held request plus one run per key, each on behalf of
        // the follower alone.
        EXPECT_EQ(counters.runs.load(), 3u);
        serve::WorkloadMetrics m = server.metrics().workload("Fake");
        EXPECT_EQ(m.canceled, 1u);
        EXPECT_EQ(m.expired, 1u);
        EXPECT_EQ(m.completed, 3u);
    }
}

TEST(ServeServer, PrunedLeaderWithoutFollowersDoesNotRun)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    Answers answers;
    counters.gate.close();
    ASSERT_EQ(server.submit("Fake", 1, answers.tag(0)),
              serve::RequestStatus::Ok);
    auto cancel = std::make_shared<std::atomic<bool>>(true);
    ASSERT_EQ(server.submit("Fake", 7, answers.tag(1),
                            serve::noDeadline(), cancel),
              serve::RequestStatus::Ok);
    counters.gate.open();
    answers.wait(2);
    EXPECT_EQ(answers.byTag.at(1).status,
              serve::RequestStatus::Canceled);
    EXPECT_EQ(counters.runs.load(), 1u);

    // The pruned flight is gone: the same key runs afresh.
    EXPECT_EQ(server.call("Fake", 7).status, serve::RequestStatus::Ok);
    EXPECT_EQ(counters.runs.load(), 2u);
}

TEST(ServeServer, PipelinedGroupFailsOnlyTheThrowingRequest)
{
    // Five distinct seeds queue behind a request held at the gate and
    // run as one pipelined group, in which seed 3's episode throws.
    // Only that request retries — alone, round after round — and ends
    // Failed; the rest of its group completes Ok on the first round.
    FakeCounters counters;
    serve::ServerOptions options;
    options.workloads = {"Staged"};
    options.workers = 1;
    options.pipelineDepth = 2;
    options.maxRetries = 2;
    options.retryBackoffUs = 1;
    options.factory = [&counters](const std::string &) {
        return std::make_unique<tests::FakeStagedWorkload>(counters,
                                                           3);
    };
    serve::Server server(std::move(options));
    Answers answers;
    counters.gate.close();
    ASSERT_EQ(server.submit("Staged", 100, answers.tag(100)),
              serve::RequestStatus::Ok);
    for (int seed = 1; seed <= 5; seed++)
        ASSERT_EQ(server.submit("Staged", static_cast<uint64_t>(seed),
                                answers.tag(seed)),
                  serve::RequestStatus::Ok);
    counters.gate.open();
    answers.wait(6);
    server.shutdown();

    // Exactly once: six answers, no more, even across the retries.
    EXPECT_EQ(answers.delivered, 6);
    FakeCounters scratch;
    FakeWorkload serial(scratch, true);
    serial.setUp(42);
    for (const auto &[seed, response] : answers.byTag) {
        if (seed == 3) {
            EXPECT_EQ(response.status, serve::RequestStatus::Failed);
            EXPECT_EQ(response.retries, 2);
            continue;
        }
        EXPECT_EQ(response.status, serve::RequestStatus::Ok)
            << "seed " << seed;
        EXPECT_EQ(response.retries, 0) << "seed " << seed;
        serial.reseedEpisodes(static_cast<uint64_t>(seed));
        EXPECT_EQ(response.score, serial.run()) << "seed " << seed;
        if (seed != 100) {
            EXPECT_TRUE(response.pipelined) << "seed " << seed;
        }
    }
    // Six first-round stage-0 runs plus seed 3's two retries.
    EXPECT_EQ(counters.runs.load(), 8u);
    serve::WorkloadMetrics metrics =
        server.metrics().workload("Staged");
    EXPECT_EQ(metrics.workerFaults, 3u);
    EXPECT_EQ(metrics.retries, 2u);
    EXPECT_EQ(metrics.failed, 1u);
    EXPECT_EQ(metrics.completed, 5u);
}

TEST(ServeServer, ShutdownDrainsAndThenRejects)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true, 2));

    std::atomic<int> completions{0};
    for (uint64_t i = 0; i < 10; i++)
        ASSERT_EQ(server.submit("Fake", i,
                                [&](const serve::Response &response) {
                                    EXPECT_EQ(
                                        response.status,
                                        serve::RequestStatus::Ok);
                                    completions.fetch_add(1);
                                }),
                  serve::RequestStatus::Ok);
    server.shutdown();
    EXPECT_EQ(completions.load(), 10);

    serve::Response late = server.call("Fake", 1);
    EXPECT_EQ(late.status, serve::RequestStatus::RejectedShutdown);
    // shutdown() is idempotent (the destructor calls it again).
    server.shutdown();
}

TEST(ServeServer, OfferedLoadCountsRejectionsSeparately)
{
    // Regression: rejected requests must not dilute throughput math.
    // `offered` counts every submit() (admitted + rejected) while
    // `completed` only counts Ok finishes, so acceptance and goodput
    // denominators stay honest under backpressure.
    FakeCounters counters;
    auto options = fakeOptions(counters, true, 50);
    options.queueCapacity = 2;
    serve::Server server(std::move(options));

    std::atomic<int> completions{0};
    auto callback = [&](const serve::Response &) {
        completions.fetch_add(1);
    };
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    for (uint64_t i = 0; i < 10; i++) {
        if (server.submit("Fake", i, callback) ==
            serve::RequestStatus::Ok)
            admitted++;
        else
            rejected++;
    }
    ASSERT_GT(rejected, 0u);
    server.shutdown();

    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.offered, 10u);
    EXPECT_EQ(m.offered, m.submitted + m.rejected());
    EXPECT_EQ(m.submitted, admitted);
    EXPECT_EQ(m.rejected(), rejected);
    EXPECT_EQ(m.completed, admitted);
    serve::WorkloadMetrics t = server.metrics().total();
    EXPECT_EQ(t.offered, 10u);
}

TEST(ServeServer, MetricsAccountEveryOutcome)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    for (uint64_t i = 0; i < 5; i++)
        server.call("Fake", i);
    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.submitted, 5u);
    EXPECT_EQ(m.completed, 5u);
    EXPECT_EQ(m.rejected(), 0u);
    EXPECT_EQ(m.latency.count(), 5u);
    EXPECT_GT(m.latency.p99(), 0.0);
    EXPECT_GE(m.executions, 1u);

    server.resetMetrics();
    EXPECT_EQ(server.metrics().workload("Fake").submitted, 0u);
}

} // namespace
