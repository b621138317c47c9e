#include "exec/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/opgraph.hh"
#include "serve/queue.hh"
#include "sim/schedule.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace nsbench::exec
{

using core::EpisodeState;
using core::Phase;
using core::Profiler;
using core::StageSpec;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

} // namespace

int
PipelineResult::failures() const
{
    return static_cast<int>(
        std::count_if(errors.begin(), errors.end(),
                      [](const std::exception_ptr &e) { return !!e; }));
}

double
PipelineResult::busySeconds() const
{
    double total = 0.0;
    for (const StageReport &stage : stages)
        total += stage.busySeconds;
    return total;
}

double
PipelineResult::bottleneckSeconds() const
{
    double worst = 0.0;
    for (const StageReport &stage : stages)
        worst = std::max(worst, stage.busySeconds);
    return worst;
}

uint64_t
episodeSeed(uint64_t base, int index)
{
    return base + static_cast<uint64_t>(index);
}

PipelineResult
runPipelined(core::Workload &workload,
             const std::vector<uint64_t> &seeds,
             const PipelineOptions &options)
{
    util::panicIf(seeds.empty(),
                  "runPipelined: need at least one episode");
    util::panicIf(options.depth < 1,
                  "runPipelined: queue depth must be positive");
    int stage_count = workload.stageCount();
    util::panicIf(stage_count < 1,
                  "runPipelined: stageCount() must be positive");

    auto episodes = static_cast<int>(seeds.size());
    const bool reseed = workload.seedSensitive();
    // Nothing can overlap: run the stages one after another here.
    const bool on_caller = stage_count == 1 || episodes == 1;
    PipelineResult result;
    result.scores.assign(seeds.size(), 0.0);
    result.errors.assign(seeds.size(), nullptr);
    result.episodeStageSeconds.assign(
        seeds.size(),
        std::vector<double>(static_cast<size_t>(stage_count), 0.0));
    if (options.collectProfiles) {
        result.neuralSeconds.assign(seeds.size(), 0.0);
        result.symbolicSeconds.assign(seeds.size(), 0.0);
    }

    // One private profiler and busy counter per stage; stage workers
    // write disjoint slots (an episode's slots are handed from stage
    // to stage with its state), so no locks are needed on the result.
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<double> busy(static_cast<size_t>(stage_count), 0.0);
    for (int s = 0; s < stage_count; s++)
        profilers.push_back(std::make_unique<Profiler>());

    // queues[s] feeds stage s+1 across threads. On the caller the one
    // episode waits in handoff[s] instead, which also keeps the queue's
    // chaos site out of a lone request's fault schedule.
    using Queue = serve::BoundedQueue<EpisodeState>;
    std::vector<std::unique_ptr<Queue>> queues;
    std::vector<std::optional<EpisodeState>> handoff(
        on_caller ? static_cast<size_t>(stage_count - 1) : 0);
    for (int s = 0; !on_caller && s + 1 < stage_count; s++)
        queues.push_back(
            std::make_unique<Queue>(static_cast<size_t>(options.depth)));

    auto worker = [&](int stage) {
        // Kernels inside runStage execute inline on this thread;
        // parallelism comes from stage overlap, and profiler
        // attribution stays exact per stage.
        util::ThreadPool::SerialScope serial;
        Profiler &profiler = *profilers[static_cast<size_t>(stage)];
        Profiler::ThreadTargetScope target(profiler);
        profiler.reset(); // take ownership on this thread
        profiler.setEnabled(options.collectProfiles);
        const auto slot = static_cast<size_t>(stage);
        const bool last = stage == stage_count - 1;

        int fed = 0;
        auto next = [&]() -> std::optional<EpisodeState> {
            if (stage > 0)
                return on_caller ? std::exchange(handoff[slot - 1], {})
                                 : queues[slot - 1]->pop();
            if (fed == episodes)
                return std::nullopt;
            EpisodeState state;
            state.seed = seeds[static_cast<size_t>(fed)];
            state.index = fed++;
            return state;
        };

        double neural = 0.0, symbolic = 0.0; // profiler totals so far
        while (auto state = next()) {
            const auto e = static_cast<size_t>(state->index);
            auto start = Clock::now();
            try {
                if (stage == 0 && reseed)
                    workload.reseedEpisodes(state->seed);
                workload.runStage(stage, *state);
            } catch (...) {
                result.errors[e] = std::current_exception();
            }
            double dt = secondsSince(start);
            busy[slot] += dt;
            result.episodeStageSeconds[e][slot] = dt;
            if (options.collectProfiles) {
                Profiler::flushThisThread();
                double was_neural = std::exchange(
                    neural, profiler.phaseTotals(Phase::Neural).seconds);
                double was_symbolic = std::exchange(
                    symbolic,
                    profiler.phaseTotals(Phase::Symbolic).seconds);
                result.neuralSeconds[e] += neural - was_neural;
                result.symbolicSeconds[e] += symbolic - was_symbolic;
            }
            if (result.errors[e])
                continue;
            if (last)
                result.scores[e] = state->score;
            else if (on_caller)
                handoff[slot] = std::move(*state);
            else
                queues[slot]->push(std::move(*state));
        }
        if (!last && !on_caller)
            queues[slot]->close();
        Profiler::flushThisThread();
    };

    auto wall_start = Clock::now();
    if (on_caller) {
        for (int s = 0; s < stage_count; s++)
            worker(s);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(stage_count));
        for (int s = 0; s < stage_count; s++)
            threads.emplace_back(worker, s);
        for (std::thread &thread : threads)
            thread.join();
    }
    result.wallSeconds = secondsSince(wall_start);

    for (int s = 0; s < stage_count; s++) {
        StageSpec spec = workload.stageSpec(s);
        StageReport report;
        report.name = spec.name;
        report.phase = spec.phase;
        report.busySeconds = busy[static_cast<size_t>(s)];
        if (options.collectProfiles) {
            const Profiler &profiler =
                *profilers[static_cast<size_t>(s)];
            report.neural = profiler.phaseTotals(Phase::Neural);
            report.symbolic = profiler.phaseTotals(Phase::Symbolic);
        }
        result.stages.push_back(std::move(report));
    }
    return result;
}

std::vector<double>
runSerialEpisodes(core::Workload &workload,
                  const std::vector<uint64_t> &seeds)
{
    util::ThreadPool::SerialScope serial;
    std::vector<double> scores;
    scores.reserve(seeds.size());
    for (uint64_t seed : seeds) {
        workload.reseedEpisodes(seed);
        scores.push_back(workload.run());
    }
    return scores;
}

double
predictedSpeedup(const std::vector<double> &stageSeconds,
                 int episodes)
{
    util::panicIf(stageSeconds.empty(),
                  "predictedSpeedup: need at least one stage");
    util::panicIf(episodes < 1,
                  "predictedSpeedup: need at least one episode");

    // Model the executor exactly: each stage gets a dedicated unit.
    // Stages alternate between the simulator's two unit kinds, with
    // enough units of each kind that same-kind stages never contend
    // — chain dependencies already serialize consecutive stages.
    core::OpGraph graph;
    int neural_units = 0, symbolic_units = 0;
    core::NodeId prev = 0;
    for (size_t s = 0; s < stageSeconds.size(); s++) {
        Phase kind = s % 2 == 0 ? Phase::Neural : Phase::Symbolic;
        if (kind == Phase::Neural)
            neural_units++;
        else
            symbolic_units++;
        core::NodeId id = graph.addNode(
            "stage" + std::to_string(s), kind,
            stageSeconds[s] / static_cast<double>(episodes));
        if (s > 0)
            graph.addEdge(prev, id);
        prev = id;
    }
    sim::ScheduleConfig config;
    config.neuralUnits = std::max(neural_units, 1);
    config.symbolicUnits = std::max(symbolic_units, 1);
    return sim::pipelineSchedule(graph, config, episodes).speedup();
}

} // namespace nsbench::exec
