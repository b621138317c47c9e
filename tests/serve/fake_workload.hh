/**
 * @file
 * Deterministic fake workload for serve unit tests.
 *
 * Scores are a pure arithmetic function of (model seed, episode
 * seed), run() invocations are counted through a shared atomic, an
 * optional per-run sleep simulates service time, and a shared gate
 * can hold every run() until the test opens it, so tests can assert
 * on sharing (how many run() calls served N requests), backpressure
 * and drain behaviour without paying for real models — and can queue
 * requests behind a held worker by construction rather than by
 * timing. A two-stage variant throws on one chosen seed, for the
 * server's pipelined groups.
 */

#ifndef NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH
#define NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/workload.hh"

namespace nsbench::tests
{

/**
 * A latch every fake run() passes through. Open by default; while
 * closed it holds each worker that reaches it, so a test can submit
 * requests that are certain to queue behind the held one.
 */
class FakeGate
{
  public:
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = false;
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }

    /** Blocks until the gate is open. */
    void
    pass()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return open_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = true;
};

/** Shared state every replica of a fake fleet reports into. */
struct FakeCounters
{
    std::atomic<uint64_t> setUps{0};
    std::atomic<uint64_t> runs{0};
    std::atomic<uint64_t> reseeds{0};
    FakeGate gate;
};

class FakeWorkload : public core::Workload
{
  public:
    FakeWorkload(FakeCounters &counters, bool seed_sensitive,
                 int sleep_ms = 0)
        : counters_(counters), seedSensitive_(seed_sensitive),
          sleepMs_(sleep_ms)
    {}

    std::string name() const override { return "Fake"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string taskDescription() const override { return "fake"; }

    void
    setUp(uint64_t seed) override
    {
        modelSeed_ = seed;
        episodeSeed_ = seed;
        counters_.setUps.fetch_add(1);
    }

    void
    reseedEpisodes(uint64_t seed) override
    {
        episodeSeed_ = seed;
        counters_.reseeds.fetch_add(1);
    }

    bool seedSensitive() const override { return seedSensitive_; }

    double
    run() override
    {
        counters_.runs.fetch_add(1);
        counters_.gate.pass();
        if (sleepMs_ > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMs_));
        return score();
    }

    core::OpGraph opGraph() const override { return {}; }
    uint64_t storageBytes() const override { return 0; }

  protected:
    /** Pure in (model seed, episode seed); seed-insensitive fakes
     *  ignore the episode seed like their real counterparts. */
    double
    score() const
    {
        uint64_t mix = modelSeed_ * 1000003ULL +
                       (seedSensitive_ ? episodeSeed_ * 97ULL : 0);
        return static_cast<double>(mix % 100000) / 100000.0;
    }

    FakeCounters &counters_;
    bool seedSensitive_;
    int sleepMs_;
    uint64_t modelSeed_ = 0;
    uint64_t episodeSeed_ = 0;
};

/**
 * Seed-sensitive two-stage fake for the server's pipelined groups.
 * Stage 0 counts a run, passes the gate and computes FakeWorkload's
 * score into the handoff; stage 1 publishes it, so scores match the
 * single-stage fake seed for seed. Stage 1 throws for episode seed
 * @p failSeed — one request of a group fails while the rest run on.
 */
class FakeStagedWorkload : public FakeWorkload
{
  public:
    FakeStagedWorkload(FakeCounters &counters, uint64_t failSeed)
        : FakeWorkload(counters, true), failSeed_(failSeed)
    {}

    int stageCount() const override { return 2; }

    core::StageSpec
    stageSpec(int stage) const override
    {
        return stage == 0
                   ? core::StageSpec{"perceive", core::Phase::Neural}
                   : core::StageSpec{"reason", core::Phase::Symbolic};
    }

    void
    runStage(int stage, core::EpisodeState &state) override
    {
        if (stage == 0) {
            counters_.runs.fetch_add(1);
            counters_.gate.pass();
            state.scratch = std::make_shared<double>(score());
            return;
        }
        if (state.seed == failSeed_)
            throw std::runtime_error("fake stage failure");
        state.score = *std::static_pointer_cast<double>(state.scratch);
    }

  private:
    uint64_t failSeed_;
};

} // namespace nsbench::tests

#endif // NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH
