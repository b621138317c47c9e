/**
 * @file
 * The workload interface and registry.
 *
 * Each of the paper's seven representative models implements Workload;
 * the benches iterate the registry so every figure covers all of them
 * uniformly.
 */

#ifndef NSBENCH_CORE_WORKLOAD_HH
#define NSBENCH_CORE_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/opgraph.hh"
#include "core/profiler.hh"
#include "core/taxonomy.hh"

namespace nsbench::core
{

/**
 * Mutable per-episode state handed between pipeline stages.
 *
 * One EpisodeState corresponds to one full inference episode (one
 * run() invocation worth of work). The pipeline executor fills in
 * seed/index, calls runStage(0..stageCount()-1, state) in order, and
 * reads the score after the final stage. Staged workloads thread
 * intermediate results (e.g. perception beliefs) through @c scratch;
 * the type behind the shared_ptr is private to the workload.
 */
struct EpisodeState
{
    uint64_t seed = 0;             ///< Episode seed (reseedEpisodes arg).
    int index = 0;                 ///< Episode position, submission order.
    double score = 0.0;            ///< Filled by the final stage.
    std::shared_ptr<void> scratch; ///< Inter-stage handoff payload.
};

/** Static description of one pipeline stage. */
struct StageSpec
{
    std::string name;                   ///< Stage label, e.g. "perceive".
    Phase phase = Phase::Untagged;      ///< Dominant phase of the stage.
};

/**
 * A runnable, profiled neuro-symbolic workload.
 *
 * Implementations must tag their neural and symbolic sections with
 * PhaseScope so the profiler can attribute every operation, and must
 * report a deterministic result given the same seed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name, e.g. "NVSA". */
    virtual std::string name() const = 0;

    /** Paradigm per the paper's Tab. III. */
    virtual Paradigm paradigm() const = 0;

    /** One-line task description for reports. */
    virtual std::string taskDescription() const = 0;

    /**
     * Builds the model and its synthetic dataset. Allocation done here
     * counts toward the storage footprint, not the runtime working set.
     */
    virtual void setUp(uint64_t seed) = 0;

    /**
     * Runs one profiled end-to-end inference episode. All tensor and
     * symbolic ops report to the global profiler.
     *
     * @return A task-quality score in [0, 1] (e.g. accuracy over the
     *         episode) so integration tests can check the model works,
     *         not just that it spends time.
     */
    virtual double run() = 0;

    /**
     * Re-seeds the per-run episode stream (data generators, episode
     * RNGs) without rebuilding the model. After reseedEpisodes(s),
     * run() must return a score that is a pure function of
     * (model, s) — independent of how many runs the instance served
     * before. The serving runtime calls this once per request so
     * long-lived replicas amortize setUp() across requests while
     * keeping the determinism contract: a request with a fixed seed
     * scores identically on every replica, in every arrival order.
     *
     * The default rebuilds everything via setUp(seed) — always
     * correct, never cheap; workloads override it to reset only
     * their episode state.
     */
    virtual void reseedEpisodes(uint64_t seed) { setUp(seed); }

    /**
     * True when run()'s score depends on the episode seed. Workloads
     * that evaluate a fixed benchmark built at setUp() time (so
     * every run is the identical computation) return false, which
     * lets the server's single-flight merge *all* their concurrent
     * requests onto shared executions rather than only same-seed
     * ones.
     */
    virtual bool seedSensitive() const { return true; }

    /**
     * Number of pipeline stages this workload can be split into.
     *
     * The default is one fused stage, which keeps every workload
     * correct unchanged: runStage(0) simply calls run(). Staged
     * workloads override this together with stageSpec()/runStage()
     * to expose their neural/symbolic phases as separate stages the
     * exec::PipelineExecutor can overlap across episodes.
     */
    virtual int stageCount() const { return 1; }

    /** Static description of stage @p stage in [0, stageCount()). */
    virtual StageSpec
    stageSpec(int stage) const
    {
        (void)stage;
        return StageSpec{name(), Phase::Untagged};
    }

    /**
     * Runs one pipeline stage of one episode.
     *
     * Contract (what makes pipelined scores byte-identical to serial
     * run() loops):
     *  - the caller invokes reseedEpisodes(state.seed) immediately
     *    before runStage(0, state) for each episode, and calls the
     *    stages of one episode strictly in order;
     *  - stage 0 must consume *all* per-episode RNG (data generators,
     *    episode streams) so that later stages are pure functions of
     *    @p state plus immutable model structures — the executor runs
     *    stage s of episode i concurrently with stage 0 of episode
     *    i+1, so any mutable member may only be touched by a single
     *    stage index;
     *  - the final stage writes state.score.
     *
     * The default delegates to run(), so unstaged workloads behave
     * exactly as before.
     */
    virtual void
    runStage(int stage, EpisodeState &state)
    {
        (void)stage;
        state.score = run();
    }

    /**
     * Coarse stage dataflow for Fig. 4. Stage durations are zero;
     * benches fill them from region measurements.
     */
    virtual OpGraph opGraph() const = 0;

    /** Bytes of persistent model state (weights, codebooks). */
    virtual uint64_t storageBytes() const = 0;
};

/** Factory signature for registry entries. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/**
 * Global name -> factory table for the seven workloads. The workloads
 * library registers its models at static-init time through the
 * RegisterWorkload helper.
 */
class WorkloadRegistry
{
  public:
    /** Registers a factory under a unique name. */
    void add(const std::string &name, WorkloadFactory factory);

    /** Instantiates a workload by name; fatal() on unknown names. */
    std::unique_ptr<Workload> create(const std::string &name) const;

    /** Names of all registered workloads, in registration order. */
    std::vector<std::string> names() const;

    /** True when a factory exists under the given name. */
    bool contains(const std::string &name) const;

    /** The process-global registry. */
    static WorkloadRegistry &global();

  private:
    std::vector<std::pair<std::string, WorkloadFactory>> entries_;
};

/**
 * Static-init registration helper:
 * @code
 * static RegisterWorkload reg("NVSA", [] { return
 *     std::make_unique<NvsaWorkload>(); });
 * @endcode
 */
struct RegisterWorkload
{
    RegisterWorkload(const std::string &name, WorkloadFactory factory)
    {
        WorkloadRegistry::global().add(name, std::move(factory));
    }
};

} // namespace nsbench::core

#endif // NSBENCH_CORE_WORKLOAD_HH
