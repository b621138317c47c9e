/**
 * @file
 * Stage-pipelined execution: byte-identity, ordering, stage reports,
 * per-episode failures, the run-on-the-caller path, and the server's
 * intra-replica pipeline mode.
 *
 * The load-bearing invariant is byte-identity: for every workload
 * and every queue depth, exec::runPipelined must produce exactly the
 * scores of a serial reseedEpisodes + run() loop over the same
 * seeds. CI also runs this suite under TSan, which turns the
 * executor's cross-thread handoffs into checked synchronization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/pipeline.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "workloads/register.hh"

#include "../serve/fake_workload.hh"

namespace
{

using namespace nsbench;

std::vector<uint64_t>
seedTrain(int episodes, uint64_t base = 42)
{
    std::vector<uint64_t> seeds;
    for (int i = 0; i < episodes; i++)
        seeds.push_back(exec::episodeSeed(base, i));
    return seeds;
}

/** All seven paper workloads, one byte-identity case each. */
const std::vector<std::string> kAllWorkloads = {
    "LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"};

/**
 * Deterministic two-stage workload: stage 0 squares the seed into
 * scratch, stage 1 folds it into a score. Cheap enough to drive
 * long episode trains through every queue depth.
 */
class ToyStaged : public core::Workload
{
  public:
    std::string name() const override { return "ToyStaged"; }
    core::Paradigm paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string taskDescription() const override
    {
        return "two-stage arithmetic toy";
    }
    void setUp(uint64_t seed) override { model_ = seed | 1; }
    void reseedEpisodes(uint64_t seed) override { episode_ = seed; }
    double
    run() override
    {
        core::EpisodeState state;
        state.seed = episode_;
        runStage(0, state);
        runStage(1, state);
        return state.score;
    }
    int stageCount() const override { return 2; }
    core::StageSpec
    stageSpec(int stage) const override
    {
        return stage == 0
                   ? core::StageSpec{"square", core::Phase::Neural}
                   : core::StageSpec{"fold", core::Phase::Symbolic};
    }
    void
    runStage(int stage, core::EpisodeState &state) override
    {
        if (stage == 0) {
            state.scratch = std::make_shared<uint64_t>(
                episode_ * episode_ + model_);
        } else {
            auto value =
                std::static_pointer_cast<uint64_t>(state.scratch);
            state.score =
                static_cast<double>(*value % 1000003) / 1000003.0;
            state.scratch.reset();
        }
    }
    core::OpGraph opGraph() const override { return {}; }
    uint64_t storageBytes() const override { return sizeof(model_); }

  private:
    uint64_t model_ = 0;
    uint64_t episode_ = 0;
};

/** Throws from a configurable stage of a configurable episode. */
class FaultyStaged : public ToyStaged
{
  public:
    FaultyStaged(int failStage, int failEpisode)
        : failStage_(failStage), failEpisode_(failEpisode)
    {}
    void
    runStage(int stage, core::EpisodeState &state) override
    {
        if (stage == failStage_ && state.index == failEpisode_)
            throw std::runtime_error("injected stage failure");
        ToyStaged::runStage(stage, state);
    }

  private:
    int failStage_;
    int failEpisode_;
};

/** One case per workload (serve-preset sizes), so each is its own
 *  ctest entry under the tier's timeout. */
class PipelineEquivalence
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(PipelineEquivalence, ByteIdenticalToSerialAcrossDepths)
{
    workloads::registerAllWorkloads();
    const std::string &name = GetParam();
    auto workload = serve::serveFactory(name);
    ASSERT_NE(workload, nullptr) << name;
    workload->setUp(7);
    auto seeds = seedTrain(4);
    std::vector<double> serial =
        exec::runSerialEpisodes(*workload, seeds);
    for (int depth : {1, 2, 4}) {
        exec::PipelineOptions options;
        options.depth = depth;
        options.collectProfiles = false;
        exec::PipelineResult piped =
            exec::runPipelined(*workload, seeds, options);
        ASSERT_EQ(piped.scores.size(), serial.size())
            << name << " depth " << depth;
        for (size_t i = 0; i < serial.size(); i++) {
            EXPECT_EQ(piped.scores[i], serial[i])
                << name << " depth " << depth << " episode " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryWorkload, PipelineEquivalence,
    ::testing::ValuesIn(kAllWorkloads),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Pipeline, SingleStageWorkloadDegeneratesToSerial)
{
    // VSAIT never overrode the staged interface, so it exercises the
    // default fused-stage path: one worker, scores still identical.
    auto workload = serve::serveFactory("VSAIT");
    workload->setUp(7);
    ASSERT_EQ(workload->stageCount(), 1);
    auto seeds = seedTrain(3);
    std::vector<double> serial =
        exec::runSerialEpisodes(*workload, seeds);
    exec::PipelineResult piped =
        exec::runPipelined(*workload, seeds);
    EXPECT_EQ(piped.scores, serial);
    ASSERT_EQ(piped.stages.size(), 1u);
}

TEST(Pipeline, LongTrainThroughToyStages)
{
    ToyStaged workload;
    workload.setUp(3);
    auto seeds = seedTrain(64, 100);
    std::vector<double> serial =
        exec::runSerialEpisodes(workload, seeds);
    for (int depth : {1, 2, 7}) {
        exec::PipelineOptions options;
        options.depth = depth;
        exec::PipelineResult piped =
            exec::runPipelined(workload, seeds, options);
        EXPECT_EQ(piped.scores, serial) << "depth " << depth;
    }
}

TEST(Pipeline, StageReportsMatchSpecs)
{
    ToyStaged workload;
    workload.setUp(3);
    exec::PipelineResult piped =
        exec::runPipelined(workload, seedTrain(5));
    ASSERT_EQ(piped.stages.size(), 2u);
    EXPECT_EQ(piped.stages[0].name, "square");
    EXPECT_EQ(piped.stages[0].phase, core::Phase::Neural);
    EXPECT_EQ(piped.stages[1].name, "fold");
    EXPECT_EQ(piped.stages[1].phase, core::Phase::Symbolic);
    ASSERT_EQ(piped.episodeStageSeconds.size(), 5u);
    for (const auto &episode : piped.episodeStageSeconds)
        ASSERT_EQ(episode.size(), 2u);
    EXPECT_GT(piped.wallSeconds, 0.0);
    EXPECT_GE(piped.busySeconds(), piped.bottleneckSeconds());
    EXPECT_GT(piped.overlapSpeedup(), 0.0);
}

TEST(Pipeline, EpisodeSeedsAreSequential)
{
    EXPECT_EQ(exec::episodeSeed(42, 0), 42u);
    EXPECT_EQ(exec::episodeSeed(42, 3), 45u);
}

/**
 * Runs @p seeds through a FaultyStaged train and checks that only
 * episode @p failEpisode records an error, while every other score
 * is byte-equal to the fault-free serial loop.
 */
void
expectOnlyEpisodeFails(int failStage, int failEpisode,
                       const std::vector<uint64_t> &seeds, int depth)
{
    ToyStaged clean;
    clean.setUp(3);
    std::vector<double> serial = exec::runSerialEpisodes(clean, seeds);
    FaultyStaged workload(failStage, failEpisode);
    workload.setUp(3);
    exec::PipelineOptions options;
    options.depth = depth;
    exec::PipelineResult piped =
        exec::runPipelined(workload, seeds, options);
    ASSERT_EQ(piped.errors.size(), seeds.size());
    EXPECT_EQ(piped.failures(), 1);
    for (size_t i = 0; i < seeds.size(); i++) {
        if (static_cast<int>(i) == failEpisode) {
            EXPECT_NE(piped.errors[i], nullptr)
                << "stage " << failStage;
            EXPECT_THROW(std::rethrow_exception(piped.errors[i]),
                         std::runtime_error);
            continue;
        }
        EXPECT_EQ(piped.errors[i], nullptr)
            << "stage " << failStage << " episode " << i;
        EXPECT_EQ(std::memcmp(&piped.scores[i], &serial[i],
                              sizeof(double)),
                  0)
            << "stage " << failStage << " episode " << i;
    }
}

TEST(Pipeline, StageExceptionFailsOnlyItsEpisode)
{
    for (int stage : {0, 1})
        expectOnlyEpisodeFails(stage, 2, seedTrain(8), 1);
    // A failed episode neither tears the train down nor wedges it: a
    // full-depth 32-episode train behind it still returns the rest.
    expectOnlyEpisodeFails(1, 0, seedTrain(32), 2);
    // The same holds when the one episode runs on the caller.
    for (int stage : {0, 1})
        expectOnlyEpisodeFails(stage, 0, seedTrain(1), 2);
}

/** ToyStaged that records which threads ran its stages. */
class ThreadRecorder : public ToyStaged
{
  public:
    explicit ThreadRecorder(int stages) : stages_(stages) {}
    int stageCount() const override { return stages_; }
    void
    runStage(int stage, core::EpisodeState &state) override
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            threads_.insert(std::this_thread::get_id());
        }
        if (stages_ == 2) {
            ToyStaged::runStage(stage, state);
        } else {
            ToyStaged::runStage(0, state);
            ToyStaged::runStage(1, state);
        }
    }
    std::set<std::thread::id>
    threads()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return threads_;
    }

  private:
    int stages_;
    std::mutex mu_;
    std::set<std::thread::id> threads_;
};

TEST(Pipeline, NothingToOverlapRunsOnTheCallingThread)
{
    const std::set<std::thread::id> caller = {
        std::this_thread::get_id()};
    ToyStaged reference;
    reference.setUp(3);

    // One episode of a staged workload, and a train of a fused one:
    // neither can overlap, so no thread is started.
    ThreadRecorder one_episode(2);
    one_episode.setUp(3);
    exec::PipelineResult piped =
        exec::runPipelined(one_episode, seedTrain(1));
    EXPECT_EQ(one_episode.threads(), caller);
    EXPECT_EQ(piped.scores,
              exec::runSerialEpisodes(reference, seedTrain(1)));
    ASSERT_EQ(piped.episodeStageSeconds.at(0).size(), 2u);

    ThreadRecorder fused(1);
    fused.setUp(3);
    piped = exec::runPipelined(fused, seedTrain(5));
    EXPECT_EQ(fused.threads(), caller);
    EXPECT_EQ(piped.scores,
              exec::runSerialEpisodes(reference, seedTrain(5)));

    // Two episodes of two stages do overlap, on stage threads.
    ThreadRecorder overlapped(2);
    overlapped.setUp(3);
    exec::runPipelined(overlapped, seedTrain(2));
    EXPECT_EQ(overlapped.threads().count(std::this_thread::get_id()),
              0u);
    EXPECT_EQ(overlapped.threads().size(), 2u);
}

TEST(Pipeline, EpisodePhaseSecondsSumToStageTotals)
{
    // LNN's ground -> infer split records real ops in both phases;
    // each episode's share, summed over the train, is the stage
    // profilers' total — on stage threads and on the caller.
    workloads::registerAllWorkloads();
    auto workload = serve::serveFactory("LNN");
    workload->setUp(7);
    for (int episodes : {1, 3}) {
        exec::PipelineResult piped =
            exec::runPipelined(*workload, seedTrain(episodes));
        ASSERT_EQ(piped.neuralSeconds.size(),
                  static_cast<size_t>(episodes));
        ASSERT_EQ(piped.symbolicSeconds.size(),
                  static_cast<size_t>(episodes));
        double neural = 0.0, symbolic = 0.0;
        double stage_neural = 0.0, stage_symbolic = 0.0;
        for (int i = 0; i < episodes; i++) {
            neural += piped.neuralSeconds[static_cast<size_t>(i)];
            symbolic += piped.symbolicSeconds[static_cast<size_t>(i)];
        }
        for (const exec::StageReport &stage : piped.stages) {
            stage_neural += stage.neural.seconds;
            stage_symbolic += stage.symbolic.seconds;
        }
        EXPECT_GT(symbolic, 0.0) << episodes << " episodes";
        EXPECT_NEAR(neural, stage_neural, 1e-9);
        EXPECT_NEAR(symbolic, stage_symbolic, 1e-9);
    }
    // Off, the result carries no per-episode split.
    exec::PipelineOptions options;
    options.collectProfiles = false;
    exec::PipelineResult piped =
        exec::runPipelined(*workload, seedTrain(2), options);
    EXPECT_TRUE(piped.neuralSeconds.empty());
}

TEST(Pipeline, PredictedSpeedupModelsDedicatedUnits)
{
    // Perfectly balanced two-stage pipeline -> ~2x for long trains.
    double balanced =
        exec::predictedSpeedup({8.0, 8.0}, /*episodes=*/8);
    EXPECT_GT(balanced, 1.7);
    EXPECT_LE(balanced, 2.0 + 1e-9);
    // A dominant stage caps the win no matter the depth.
    double skewed = exec::predictedSpeedup({1.0, 15.0}, 8);
    EXPECT_LT(skewed, 1.15);
    // One stage cannot overlap with itself.
    EXPECT_DOUBLE_EQ(exec::predictedSpeedup({4.0}, 8), 1.0);
}

TEST(Pipeline, ServerPipelineModeIsByteIdentical)
{
    workloads::registerAllWorkloads();
    // NVSA at the serve preset is seed-sensitive and staged, so
    // distinct seeds queued together form a group the worker can
    // pipeline. A gated fake request holds the only worker while the
    // NVSA requests queue, so the group forms by construction. Run
    // the same request set through a pipelined and a serial server;
    // scores must agree request-for-request.
    auto runServer = [](int pipelineDepth) {
        tests::FakeCounters counters;
        serve::ServerOptions options;
        options.workloads = {"Gate", "NVSA"};
        options.workers = 1;
        options.pipelineDepth = pipelineDepth;
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
        std::map<uint64_t, double> scores;
        std::map<uint64_t, bool> pipelined;
        std::vector<std::future<serve::Response>> futures;
        std::vector<uint64_t> seeds = {5, 6, 7, 8, 5, 6};
        std::vector<std::promise<serve::Response>> promises(
            seeds.size());
        for (size_t i = 0; i < seeds.size(); i++) {
            auto *promise = &promises[i];
            futures.push_back(promise->get_future());
            EXPECT_EQ(server.submit("NVSA", seeds[i],
                                    [promise](
                                        const serve::Response &r) {
                                        promise->set_value(r);
                                    }),
                      serve::RequestStatus::Ok);
        }
        counters.gate.open();
        EXPECT_EQ(held.get_future().get().status,
                  serve::RequestStatus::Ok);
        for (size_t i = 0; i < seeds.size(); i++) {
            serve::Response response = futures[i].get();
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            auto found = scores.find(seeds[i]);
            if (found != scores.end()) {
                EXPECT_EQ(found->second, response.score);
            }
            scores[seeds[i]] = response.score;
            pipelined[seeds[i]] = response.pipelined;
        }
        server.shutdown();
        return std::make_pair(scores, pipelined);
    };

    auto [piped, pipedFlags] = runServer(2);
    auto [serial, serialFlags] = runServer(0);
    ASSERT_EQ(piped.size(), serial.size());
    for (const auto &[seed, score] : serial) {
        ASSERT_TRUE(piped.count(seed));
        EXPECT_EQ(piped[seed], score) << "seed " << seed;
    }
    // The four distinct seeds ran as one pipelined group.
    for (const auto &[seed, flag] : pipedFlags)
        EXPECT_TRUE(flag) << "seed " << seed;
    for (const auto &[seed, flag] : serialFlags)
        EXPECT_FALSE(flag) << "seed " << seed;
}

} // namespace
