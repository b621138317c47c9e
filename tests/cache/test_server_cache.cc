/**
 * @file
 * Server result-cache integration tests: admission-time hits,
 * canonical keys for seed-insensitive workloads, single-flight
 * coalescing of concurrent misses, and score identity with the cache
 * on vs off across replica counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/server.hh"

#include "../serve/fake_workload.hh"

namespace
{

using namespace nsbench;
using tests::FakeCounters;
using tests::FakeWorkload;

serve::ServerOptions
cachedFake(FakeCounters &counters, bool seed_sensitive)
{
    serve::ServerOptions options;
    options.workloads = {"Fake"};
    options.workers = 1;
    options.resultCache = true;
    options.factory = [&counters,
                       seed_sensitive](const std::string &) {
        return std::make_unique<FakeWorkload>(counters,
                                              seed_sensitive);
    };
    return options;
}

TEST(CacheServer, RepeatedSeedIsServedFromCacheWithoutARun)
{
    FakeCounters counters;
    serve::Server server(cachedFake(counters, true));

    serve::Response first = server.call("Fake", 7);
    uint64_t runs_after_first = counters.runs.load();
    serve::Response second = server.call("Fake", 7);
    serve::Response third = server.call("Fake", 7);

    EXPECT_EQ(counters.runs.load(), runs_after_first);
    EXPECT_EQ(second.score, first.score);
    EXPECT_EQ(third.score, first.score);
    EXPECT_FALSE(first.cached);
    EXPECT_TRUE(second.cached);
    EXPECT_TRUE(third.cached);

    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.cacheHits, 2u);
    EXPECT_EQ(m.cacheMisses, 1u);
    EXPECT_DOUBLE_EQ(m.cacheHitRate(), 2.0 / 3.0);
    EXPECT_EQ(m.completed, 3u);

    const cache::ResultCache *cache = server.resultCache();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->stats().entries, 1u);
}

TEST(CacheServer, SeedInsensitiveWorkloadsShareOneCanonicalEntry)
{
    FakeCounters counters;
    serve::Server server(cachedFake(counters, false));

    serve::Response a = server.call("Fake", 1);
    uint64_t runs_after_first = counters.runs.load();
    serve::Response b = server.call("Fake", 2);
    serve::Response c = server.call("Fake", 3);

    // Distinct episode seeds, but the workload ignores them: every
    // later request hits the canonical (episode-seed 0) entry.
    EXPECT_EQ(counters.runs.load(), runs_after_first);
    EXPECT_EQ(b.score, a.score);
    EXPECT_EQ(c.score, a.score);
    EXPECT_EQ(server.metrics().workload("Fake").cacheHits, 2u);
    ASSERT_NE(server.resultCache(), nullptr);
    EXPECT_EQ(server.resultCache()->stats().entries, 1u);
}

TEST(CacheServer, ConcurrentMissesSingleFlightOntoOneExecution)
{
    FakeCounters counters;
    // The gate holds the leader's run until every duplicate has
    // joined its flight.
    serve::Server server(cachedFake(counters, true));
    counters.gate.close();

    constexpr int n = 4;
    std::atomic<int> outstanding{n};
    std::mutex mu;
    std::condition_variable cv;
    std::vector<double> scores;
    std::mutex scores_mu;
    for (int i = 0; i < n; i++) {
        ASSERT_EQ(server.submit(
                      "Fake", 5,
                      [&](const serve::Response &response) {
                          EXPECT_EQ(response.status,
                                    serve::RequestStatus::Ok);
                          {
                              std::lock_guard<std::mutex> lock(
                                  scores_mu);
                              scores.push_back(response.score);
                          }
                          std::lock_guard<std::mutex> lock(mu);
                          if (outstanding.fetch_sub(1) == 1)
                              cv.notify_all();
                      }),
                  serve::RequestStatus::Ok);
    }
    counters.gate.open();
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding.load() == 0; });
    }

    // One leader executed; every follower was fanned its result.
    EXPECT_EQ(counters.runs.load(), 1u);
    ASSERT_EQ(scores.size(), static_cast<size_t>(n));
    for (double score : scores)
        EXPECT_EQ(score, scores.front());

    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.completed, static_cast<uint64_t>(n));
    EXPECT_EQ(m.singleFlightShared, static_cast<uint64_t>(n - 1));
    EXPECT_EQ(m.cacheMisses, static_cast<uint64_t>(n));
    EXPECT_EQ(m.executions, 1u);
}

TEST(CacheServer, ScoresAreIdenticalCacheOnAndOffAcrossReplicas)
{
    // The cache replays scores; it must never change them. Compare a
    // seed sweep between an uncached single-replica server and a
    // cached three-replica server — bit-equal doubles required.
    std::vector<double> uncached;
    {
        FakeCounters counters;
        auto options = cachedFake(counters, true);
        options.resultCache = false;
        options.workers = 1;
        serve::Server server(std::move(options));
        for (uint64_t seed = 0; seed < 10; seed++)
            uncached.push_back(server.call("Fake", seed).score);
    }

    std::vector<double> cached;
    {
        FakeCounters counters;
        auto options = cachedFake(counters, true);
        options.workers = 3;
        serve::Server server(std::move(options));
        // Two passes: the second is served from cache entirely.
        for (uint64_t seed = 0; seed < 10; seed++)
            cached.push_back(server.call("Fake", seed).score);
        for (uint64_t seed = 0; seed < 10; seed++)
            EXPECT_EQ(server.call("Fake", seed).score,
                      cached[static_cast<size_t>(seed)]);
    }

    ASSERT_EQ(uncached.size(), cached.size());
    for (size_t i = 0; i < uncached.size(); i++)
        EXPECT_EQ(uncached[i], cached[i]);
}

} // namespace
