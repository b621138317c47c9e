/**
 * @file
 * Determinism-under-concurrency integration tests on real workloads.
 *
 * The serving determinism contract: a request with a fixed seed
 * returns the same score no matter how it was served — one replica
 * or many, serial or stage-pipelined, result cache on or off,
 * whatever the arrival order. These tests drive real (serve-preset) workloads
 * through servers at those extremes and require byte-identical
 * scores, including against a direct un-served execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <vector>

#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/threadpool.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

class ServeDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }

    static serve::ServerOptions
    serverOptions(const std::string &workload, int workers,
                  int pipeline_depth, bool cache)
    {
        serve::ServerOptions options;
        options.workloads = {workload};
        options.workers = workers;
        options.pipelineDepth = pipeline_depth;
        options.resultCache = cache;
        options.factory = serve::serveFactory;
        return options;
    }

    /** Serves every seed once and returns seed -> score. */
    static std::map<uint64_t, double>
    scoresVia(serve::ServerOptions options,
              const std::vector<uint64_t> &seeds)
    {
        serve::Server server(std::move(options));
        const std::string workload = server.workloads().front();
        std::map<uint64_t, double> scores;
        std::mutex mu;
        std::condition_variable cv;
        size_t outstanding = seeds.size();
        for (uint64_t seed : seeds) {
            serve::RequestStatus status = server.submit(
                workload, seed,
                [&, seed](const serve::Response &response) {
                    std::lock_guard<std::mutex> lock(mu);
                    EXPECT_EQ(response.status,
                              serve::RequestStatus::Ok);
                    auto [it, inserted] =
                        scores.emplace(seed, response.score);
                    if (!inserted) {
                        EXPECT_EQ(it->second, response.score);
                    }
                    if (--outstanding == 0)
                        cv.notify_all();
                });
            EXPECT_EQ(status, serve::RequestStatus::Ok);
        }
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding == 0; });
        return scores;
    }
};

TEST_F(ServeDeterminism, ReplicaCountDoesNotChangeScores)
{
    const std::vector<uint64_t> seeds = {1, 2, 3, 4, 1, 2, 3, 4};
    auto one = scoresVia(serverOptions("ZeroC", 1, 0, false), seeds);
    auto many = scoresVia(serverOptions("ZeroC", 3, 0, false), seeds);
    EXPECT_EQ(one, many);
}

TEST_F(ServeDeterminism, BatchSizeAndCoalescingDoNotChangeScores)
{
    const std::vector<uint64_t> seeds = {5, 6, 5, 6, 5, 6, 5, 6};
    auto unbatched =
        scoresVia(serverOptions("ZeroC", 1, 0, false), seeds);
    auto unbatchedCached =
        scoresVia(serverOptions("ZeroC", 1, 0, true), seeds);
    auto batched =
        scoresVia(serverOptions("ZeroC", 2, 2, false), seeds);
    auto batchedCached =
        scoresVia(serverOptions("ZeroC", 2, 2, true), seeds);
    EXPECT_EQ(unbatched, unbatchedCached);
    EXPECT_EQ(unbatched, batched);
    EXPECT_EQ(unbatched, batchedCached);
}

TEST_F(ServeDeterminism, ArrivalOrderDoesNotChangeScores)
{
    std::vector<uint64_t> forward = {1, 2, 3, 4, 5, 6};
    std::vector<uint64_t> reverse(forward.rbegin(), forward.rend());
    auto options = serverOptions("ZeroC", 2, 2, false);
    auto a = scoresVia(options, forward);
    auto b = scoresVia(options, reverse);
    EXPECT_EQ(a, b);
}

TEST_F(ServeDeterminism, ServedScoresMatchDirectExecution)
{
    auto served =
        scoresVia(serverOptions("ZeroC", 2, 2, false), {7, 8, 9});

    // The same replica build, run without the server: one setUp at
    // the server's model seed, then reseed-and-run per request seed.
    serve::ServerOptions reference;
    auto replica = serve::serveFactory("ZeroC");
    replica->setUp(reference.modelSeed);
    for (uint64_t seed : {7, 8, 9}) {
        replica->reseedEpisodes(seed);
        double direct = replica->run();
        EXPECT_EQ(served.at(seed), direct)
            << "seed " << seed << " diverged from direct execution";
    }
}

TEST_F(ServeDeterminism, SeedInsensitiveWorkloadScoresAreSeedFree)
{
    auto scores =
        scoresVia(serverOptions("LNN", 2, 2, false), {1, 2, 3, 4});
    for (const auto &[seed, score] : scores)
        EXPECT_EQ(score, scores.begin()->second);

    // And identical to an un-served run at the same model seed.
    serve::ServerOptions reference;
    auto replica = serve::serveFactory("LNN");
    replica->setUp(reference.modelSeed);
    EXPECT_EQ(scores.begin()->second, replica->run());
}

TEST_F(ServeDeterminism, PhaseSplitIsReportedPerRequest)
{
    serve::Server server(serverOptions("LNN", 1, 0, false));
    serve::Response response = server.call("LNN", 1);
    ASSERT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_GT(response.neuralSeconds + response.symbolicSeconds, 0.0);
    EXPECT_GT(response.serviceSeconds, 0.0);
    EXPECT_LE(response.neuralSeconds + response.symbolicSeconds,
              response.serviceSeconds * 1.5);
}

} // namespace
