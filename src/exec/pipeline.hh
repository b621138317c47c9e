/**
 * @file
 * Stage-pipelined workload execution (the paper's Recommendation 5,
 * for real).
 *
 * sim/schedule.{hh,cc} *predicts* the win from overlapping neural
 * perception of episode i+1 with symbolic reasoning of episode i;
 * this module builds that overlap on the actual runtime. A workload
 * that implements the staged interface (Workload::stageCount() > 1)
 * runs each stage on its own worker thread, with bounded FIFO queues
 * carrying EpisodeState between consecutive stages, so up to
 * stageCount() episodes are in flight at once.
 *
 * When nothing can overlap — one stage, or one episode — the same
 * per-stage worker runs each stage in turn on the calling thread and
 * no thread is started. The server executes every request this way,
 * so a lone request pays no thread or queue handoff.
 *
 * Determinism: the stage-0 worker calls reseedEpisodes(seed_i)
 * immediately before runStage(0) of episode i, and episodes flow
 * through every stage in submission order. Because stage 0 consumes
 * the whole per-episode RNG stream (the staged-interface contract)
 * and later stages are pure in the handed-off state plus immutable
 * model structures, the per-episode scores are byte-identical to a
 * serial reseedEpisodes + run() loop over the same seeds — the
 * tests/exec suite enforces exactly this.
 *
 * Errors: the same contract makes a failed episode harmless to the
 * rest of its train. A stage that throws fails only that episode —
 * its exception lands in PipelineResult::errors and its state goes
 * no further — while the next episode's stage 0 reseeds from scratch
 * and later stages only ever see states that succeeded so far.
 */

#ifndef NSBENCH_EXEC_PIPELINE_HH
#define NSBENCH_EXEC_PIPELINE_HH

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/profiler.hh"
#include "core/workload.hh"

namespace nsbench::exec
{

/** Pipelined-execution knobs. */
struct PipelineOptions
{
    /**
     * Capacity of each inter-stage queue. Depth 1 is strict
     * lockstep; larger depths let a fast stage run ahead of a slow
     * one, smoothing per-episode duration jitter at the cost of
     * (depth x episode-state) peak memory per queue. Throughput is
     * bottlenecked by the slowest stage either way.
     */
    int depth = 2;

    /**
     * Collect per-stage operator profiles. Each stage worker owns a
     * private Profiler installed via ThreadTargetScope, so phase and
     * region attribution stays exact per stage and per episode; turn
     * this off where only the stage timers are read.
     */
    bool collectProfiles = true;
};

/** One stage's aggregate execution record. */
struct StageReport
{
    std::string name;                        ///< StageSpec name.
    core::Phase phase = core::Phase::Untagged; ///< StageSpec phase.
    double busySeconds = 0.0; ///< Total time inside runStage().
    core::OpStats neural;     ///< Stage-profiler neural totals.
    core::OpStats symbolic;   ///< Stage-profiler symbolic totals.
};

/** Outcome of one pipelined multi-episode execution. */
struct PipelineResult
{
    /** Per-episode scores, in submission order (0 when failed). */
    std::vector<double> scores;
    /** Per-episode stage exception; null when the episode succeeded. */
    std::vector<std::exception_ptr> errors;
    /**
     * Per-episode profiler phase time summed over its stages; empty
     * unless PipelineOptions::collectProfiles.
     */
    std::vector<double> neuralSeconds;
    std::vector<double> symbolicSeconds; ///< @see neuralSeconds
    /** seconds[episode][stage] spent inside that runStage call. */
    std::vector<std::vector<double>> episodeStageSeconds;
    /** End-to-end wall time across all episodes. */
    double wallSeconds = 0.0;
    /** Per-stage aggregates, index = stage. */
    std::vector<StageReport> stages;

    /** Episodes whose error slot is set. */
    int failures() const;

    /** Sum of stage busy time — the serial-equivalent work. */
    double busySeconds() const;

    /** Busy time of the slowest stage — the pipeline's floor. */
    double bottleneckSeconds() const;

    /** Measured overlap: serial-equivalent work over wall time. */
    double
    overlapSpeedup() const
    {
        return wallSeconds > 0.0 ? busySeconds() / wallSeconds : 1.0;
    }
};

/** Seed of pipeline episode @p index over @p base (base + index). */
uint64_t episodeSeed(uint64_t base, int index);

/**
 * Runs one episode per entry of @p seeds through the workload's
 * stage pipeline. Works for any workload: a single-stage workload,
 * or a single episode, runs on the calling thread; otherwise each
 * stage gets its own thread. Stage workers pin themselves with
 * ThreadPool::SerialScope, so kernels inside runStage execute
 * inline — parallelism comes from stage overlap, not from nested
 * pools. Seed-insensitive workloads are not reseeded. Never throws
 * a stage's exception: it fails that episode alone (see errors).
 */
PipelineResult runPipelined(core::Workload &workload,
                            const std::vector<uint64_t> &seeds,
                            const PipelineOptions &options = {});

/**
 * The serial baseline the byte-identity gate compares against: a
 * reseedEpisodes + run() loop over the same seeds on one pinned
 * thread.
 */
std::vector<double>
runSerialEpisodes(core::Workload &workload,
                  const std::vector<uint64_t> &seeds);

/**
 * sim::pipelineSchedule's predicted speedup for a pipeline whose
 * stage s measured @p stageSeconds[s] of busy time across
 * @p episodes episodes. The model gives every stage a dedicated
 * execution unit — exactly the executor's one-thread-per-stage shape
 * — so measured overlapSpeedup() can be compared against it
 * directly (the paper's model-vs-reality payoff).
 */
double predictedSpeedup(const std::vector<double> &stageSeconds,
                        int episodes);

} // namespace nsbench::exec

#endif // NSBENCH_EXEC_PIPELINE_HH
