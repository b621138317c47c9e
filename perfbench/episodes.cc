/**
 * @file
 * The episodes workloads: serial warm episodes of a fixed model mix.
 *
 * One round runs every main model's fixed episode quota back to back;
 * rounds repeat until the window is spent, so the mix (and with it the
 * weight each model has in episodes_per_s) never depends on speed.
 * In traced runs the models outside the main mix also run a fixed
 * number of serial control episodes per round, between rounds, so the
 * per-layer metrics cover all seven models. Traced runs also cycle
 * their rounds through three modes — spans on, spans off, profiler
 * off — to measure tracing and profiler cost in the same process.
 */

#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hh"
#include "core/workload.hh"
#include "serve/presets.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"
#include "workloads/nlm.hh"
#include "workloads/nvsa.hh"
#include "workloads/register.hh"

namespace nsbench::perfbench
{

namespace
{

constexpr uint64_t modelSeed = 42;
/** Untimed episodes per model before the first round. */
constexpr int warmupEpisodes = 2;
/** Episodes per model re-run after the window at another width. */
constexpr size_t checkSample = 2;
/** Pool width of that re-run for the main mix. */
constexpr int checkPoolWidth = 1;
/** Set-ups per run; setup_s is their median. */
constexpr int setupReps = 15;
/** NVSA's hypervector size: keeps the O(d^2) binding dominant. */
constexpr int64_t nvsaDim = 512;

/**
 * Registry-default sizes with one episode per run(): the serve presets
 * except for NVSA's hypervector size and NLM's episode count.
 */
std::unique_ptr<core::Workload>
makeModel(const std::string &name)
{
    using namespace nsbench::workloads;
    if (name == "NVSA") {
        NvsaConfig config;
        config.hvDim = nvsaDim;
        config.episodes = 1;
        return std::make_unique<NvsaWorkload>(config);
    }
    if (name == "NLM") {
        NlmConfig config;
        config.episodes = 1;
        return std::make_unique<NlmWorkload>(config);
    }
    return serve::serveFactory(name);
}

struct Model
{
    std::string name;
    uint64_t key = 0;              ///< Seed-stream key of this model.
    std::unique_ptr<core::Workload> workload;
    int quota = 0;                 ///< Episodes per round (main mix).
    double perRound = 0.0;         ///< Reference episodes per round.
    double credit = 0.0;           ///< Reference episodes owed.
    uint64_t nextEpisode = 0;
    /** (seed, score) of the first episodes, re-run at another width. */
    std::vector<std::pair<uint64_t, double>> sample;
    OpSnapshot work;               ///< Traced: profiler work of M.
    OpSnapshot exact;              ///< Traced: work of its first round.
};

enum class Mode
{
    Traced,      ///< Spans on, profiler on.
    Plain,       ///< Spans off, profiler on (the untraced program).
    NoProfiler,  ///< Spans off, profiler off.
};

/** One timed episode: the model's index and its wall time. */
struct Timed
{
    size_t model = 0;
    double ms = 0.0;
    bool main = true; ///< False for reference episodes between rounds.
};

struct Round
{
    Mode mode = Mode::Plain;
    double seconds = 0.0; ///< Wall time of the main mix.
    double cpu = 0.0;     ///< Process CPU time of the main mix.
    std::vector<Timed> episodes;

    uint64_t
    mainEpisodes() const
    {
        uint64_t n = 0;
        for (const Timed &t : episodes)
            n += t.main;
        return n;
    }
};

/** Main-mix episodes per second of one round. */
double
throughput(const Round &r)
{
    return static_cast<double>(r.mainEpisodes()) / r.seconds;
}

/** Median over the rounds run in @p mode of @p perRound. */
template <typename F>
double
medianOver(const std::vector<Round> &rounds, Mode mode, F perRound)
{
    std::vector<double> values;
    for (const Round &r : rounds)
        if (r.mode == mode)
            values.push_back(perRound(r));
    return median(values);
}

class EpisodeRunner
{
  public:
    EpisodeRunner(const Args &args, Report &report, SpanLog &spans)
        : args_(args), report_(report), spans_(spans)
    {}

    void run();

  private:
    /** One timed episode; returns false (and counts it) on failure. */
    bool episode(Model &m, uint64_t seed, bool traced, uint64_t parent,
                 double *score, double *ms);
    uint64_t seedFor(const Model &m, uint64_t episode) const;
    /** Builds and sets up every model of the run; returns seconds. */
    double build(std::vector<Model> &into, bool traced) const;
    void checkWidth();
    void reportEndToEnd(const std::vector<Round> &rounds);
    const Model &modelNamed(const std::string &name) const;
    /** Times of @p model's episodes, or of every main episode. */
    std::vector<double> episodeTimes(const std::vector<Round> &rounds,
                                     const Model *model) const;

    const Args &args_;
    Report &report_;
    SpanLog &spans_;
    std::vector<Model> models_; ///< Main mix first, then reference.
    size_t mainCount_ = 0;
    /** Episodes recorded with spans: main mix and controls. */
    uint64_t tracedEpisodes_ = 0;
};

uint64_t
EpisodeRunner::seedFor(const Model &m, uint64_t episode) const
{
    return mix64(mix64(args_.seed) ^ mix64(m.key * 1000003ull + episode));
}

bool
EpisodeRunner::episode(Model &m, uint64_t seed, bool traced,
                       uint64_t parent, double *score, double *ms)
{
    report_.attempt();
    double t0 = now(), t1 = t0, t2 = t0;
    try {
        m.workload->reseedEpisodes(seed);
        t1 = now();
        *score = m.workload->run();
        t2 = now();
    } catch (const std::exception &e) {
        report_.fail(m.name + " episode threw: " + e.what());
        return false;
    }
    *ms = (t2 - t0) * 1e3;
    if (traced) {
        tracedEpisodes_++;
        uint64_t id = spans_.add(0, parent, "bench", "episode " + m.name,
                                 t0, t2);
        spans_.add(0, id, "data", "reseedEpisodes", t0, t1);
        spans_.add(0, id, "workloads", "run " + m.name, t1, t2);
    }
    if (!(*score >= 0.0 && *score <= 1.0)) {
        report_.fail(m.name + " score outside [0,1]");
        return false;
    }
    return true;
}

double
EpisodeRunner::build(std::vector<Model> &into, bool traced) const
{
    const double t0 = now();
    // The controls feed per-layer metrics only, so only traced runs
    // build and run them.
    std::vector<const NamedValues *> lists = {&args_.models};
    if (args_.trace)
        lists.push_back(&args_.reference);
    for (const NamedValues *list : lists) {
        for (const auto &[name, count] : *list) {
            Model m;
            m.name = name;
            for (size_t i = 0; i < allModels().size(); i++)
                if (allModels()[i] == name)
                    m.key = i + 1;
            util::panicIf(m.key == 0, "perfbench: unknown model " + name);
            if (list == &args_.models)
                m.quota = static_cast<int>(count);
            else
                m.perRound = count;
            const double s0 = now();
            m.workload = makeModel(name);
            m.workload->setUp(modelSeed);
            if (traced)
                spans_.add(0, 0, "workloads", "setUp " + name, s0, now());
            into.push_back(std::move(m));
        }
    }
    return now() - t0;
}

void
EpisodeRunner::checkWidth()
{
    const int poolWidth = args_.width;
    // Scores are byte-identical at every pool width (the determinism
    // contract), so re-running sampled episodes at another width must
    // reproduce them bit for bit. Main-mix episodes ran at the pool
    // width and are re-run at the check width; the serial reference
    // episodes are re-run at the pool width.
    for (size_t i = 0; i < models_.size(); i++) {
        const int width = i < mainCount_ ? checkPoolWidth : poolWidth;
        util::ThreadPool::setGlobalThreads(width);
        Model &m = models_[i];
        for (const auto &[seed, expected] : m.sample) {
            double score = 0.0, ms = 0.0;
            if (!episode(m, seed, false, 0, &score, &ms))
                continue;
            if (std::memcmp(&score, &expected, sizeof(double)) != 0)
                report_.failAll(m.name + " score differs at pool width " +
                                std::to_string(width));
        }
    }
    util::ThreadPool::setGlobalThreads(poolWidth);
}

void
EpisodeRunner::run()
{
    const int width = args_.width;
    const bool trace = args_.trace;
    util::ThreadPool::setGlobalThreads(width);
    core::Profiler &profiler = core::Profiler::processGlobal();

    // Set-up repeats through the window, between rounds, so its median
    // samples the same stretch of the run as the episodes do.
    std::vector<double> setupSeconds{build(models_, trace)};
    mainCount_ = args_.models.size();
    auto rebuild = [&] {
        // Kept out of the profiler, whose aggregates describe episodes.
        const bool was = profiler.enabled();
        profiler.setEnabled(false);
        std::vector<Model> scratch;
        setupSeconds.push_back(build(scratch, false));
        profiler.setEnabled(was);
    };
    for (Model &m : models_) {
        for (int i = 0; i < warmupEpisodes; i++) {
            double score = 0.0, ms = 0.0;
            episode(m, seedFor(m, (1ull << 40) + i), false, 0, &score,
                    &ms);
        }
    }

    // One timed, profiled or traced episode of @p m inside round @p r.
    auto timed = [&](Model &m, Round &r, bool main, uint64_t parent) {
        const bool profiled = trace && r.mode != Mode::NoProfiler;
        OpSnapshot before;
        if (profiled && !main)
            before = OpSnapshot::take(profiler);
        uint64_t seed = seedFor(m, m.nextEpisode++);
        double score = 0.0, ms = 0.0;
        if (!episode(m, seed, r.mode == Mode::Traced, parent, &score, &ms))
            return;
        r.episodes.push_back({static_cast<size_t>(&m - models_.data()),
                              ms, main});
        if (m.sample.size() < checkSample)
            m.sample.emplace_back(seed, score);
        if (profiled && !main) {
            OpSnapshot delta = OpSnapshot::take(profiler).minus(before);
            if (m.work.ops.empty())
                m.exact = delta;
            m.work = m.work.plus(delta);
        }
    };

    profiler.reset();
    std::vector<Round> rounds;
    OpSnapshot exact;
    const double start = now();
    for (size_t index = 0;; index++) {
        Round &r = rounds.emplace_back();
        r.mode = trace ? static_cast<Mode>(index % 3) : Mode::Plain;
        const bool profiled = trace && r.mode != Mode::NoProfiler;
        profiler.setEnabled(r.mode != Mode::NoProfiler);
        const uint64_t roundId =
            r.mode == Mode::Traced ? spans_.reserve() : 0;
        const double c0 = cpuSeconds(), r0 = now();
        for (size_t i = 0; i < mainCount_; i++) {
            Model &m = models_[i];
            OpSnapshot before;
            if (profiled)
                before = OpSnapshot::take(profiler);
            for (int q = 0; q < m.quota; q++)
                timed(m, r, true, roundId);
            if (profiled) {
                OpSnapshot delta = OpSnapshot::take(profiler).minus(before);
                if (index == 0)
                    m.exact = delta;
                m.work = m.work.plus(delta);
            }
        }
        r.seconds = now() - r0;
        r.cpu = cpuSeconds() - c0;
        if (roundId)
            spans_.add(0, 0, "bench", "round", r0, r0 + r.seconds, roundId);
        if (index == 0)
            exact = OpSnapshot::take(profiler);
        // Reference models run between rounds, outside the round's
        // time, so they sample the same stretch of the run. They run
        // serially: they are controls, and tiny parallel regions would
        // tie their times to how busy the pool's other core is.
        {
            util::ThreadPool::SerialScope serial;
            for (size_t i = mainCount_; i < models_.size(); i++) {
                Model &m = models_[i];
                for (m.credit += m.perRound; m.credit >= 1.0;
                     m.credit -= 1.0)
                    timed(m, r, false, 0);
            }
        }
        const double elapsed = now() - start;
        if (elapsed * setupReps >=
            args_.seconds * static_cast<double>(setupSeconds.size()))
            rebuild();
        if (elapsed >= args_.seconds && (!trace || index >= 8))
            break;
    }
    while (setupSeconds.size() < static_cast<size_t>(setupReps))
        rebuild();
    report_.add("setup_s", median(setupSeconds), "s", setupSeconds.size());
    report_.factJson("setup_seconds", jsonArray(setupSeconds));
    profiler.setEnabled(true);
    OpSnapshot rates = OpSnapshot::take(profiler);
    for (size_t i = mainCount_; i < models_.size(); i++)
        rates = rates.minus(models_[i].work);

    checkWidth();
    // Before the host probe, whose arrays would dwarf the program's.
    report_.add("rss_mib", peakRssMib(), "MiB", 1);

    if (!trace) {
        reportEndToEnd(rounds);
        return;
    }

    const HostCeilings host = measureHost(width, report_);
    uint64_t profiledEpisodes = 0;
    for (const Round &r : rounds)
        if (r.mode != Mode::NoProfiler)
            profiledEpisodes += r.mainEpisodes();
    addOpMetrics(report_, rates, profiledEpisodes, exact,
                 rounds.front().mainEpisodes(), host);
    std::string perModel = "{";
    for (const std::string &name : allModels()) {
        const Model &m = modelNamed(name);
        std::vector<double> ms = episodeTimes(rounds, &m);
        double phased = m.work.neuralSeconds + m.work.symbolicSeconds;
        report_.add("workloads." + name + ".symbolic_share",
                    phased > 0.0 ? m.work.symbolicSeconds / phased : 0.0,
                    "ratio", ms.size());
        report_.add("workloads." + name + ".episode_ms",
                    quantile(ms, modelQuantile), "ms", ms.size());
        report_.add("workloads." + name + ".episode_p90_ms",
                    quantile(ms, 0.90), "ms", ms.size());
        perModel += std::string(perModel.size() > 1 ? ", " : "") + "\"" +
                    name + "\": " + m.exact.topOpsJson(8);
    }
    report_.factJson("profile_by_model", perModel + "}");

    report_.add("data.reseed_ms_per_episode",
                spans_.selfSecondsOf("reseedEpisodes") /
                    static_cast<double>(tracedEpisodes_) * 1e3,
                "ms", tracedEpisodes_);
    auto rate = [&](Mode mode) {
        return medianOver(rounds, mode, throughput);
    };
    report_.add("core.profiler_overhead_frac",
                rate(Mode::NoProfiler) / rate(Mode::Plain) - 1.0, "ratio",
                rounds.size() / 3);
    report_.add("bench.trace_overhead_frac",
                rate(Mode::Plain) / rate(Mode::Traced) - 1.0, "ratio",
                rounds.size() / 3);
    addIdleServeMetrics(report_);
}

void
EpisodeRunner::reportEndToEnd(const std::vector<Round> &rounds)
{
    // Untraced runs have only Plain rounds. Every round does the same
    // work, so the median round is a steady estimate of the rate and of
    // the CPU cost; latency percentiles use every episode.
    uint64_t episodes = 0;
    for (const Round &r : rounds)
        episodes += r.mainEpisodes();
    report_.add("episodes_per_s",
                medianOver(rounds, Mode::Plain, throughput), "1/s",
                rounds.size());
    std::vector<double> latency = episodeTimes(rounds, nullptr);
    report_.add("latency_p50_ms", quantile(latency, 0.50), "ms",
                latency.size());
    report_.add("latency_p99_ms", quantile(latency, 0.99), "ms",
                latency.size());
    report_.add("ok_frac", report_.okFraction(), "ratio",
                report_.attempted);
    report_.add("cpu_ms_per_episode",
                medianOver(rounds, Mode::Plain,
                           [](const Round &r) {
                               return r.cpu /
                                      static_cast<double>(r.mainEpisodes()) *
                                      1e3;
                           }),
                "ms", episodes);
}

const Model &
EpisodeRunner::modelNamed(const std::string &name) const
{
    for (const Model &m : models_)
        if (m.name == name)
            return m;
    util::fatal("perfbench: model " + name + " is not in this workload");
}

std::vector<double>
EpisodeRunner::episodeTimes(const std::vector<Round> &rounds,
                            const Model *model) const
{
    std::vector<double> ms;
    for (const Round &r : rounds)
        for (const Timed &t : r.episodes)
            if (model ? &models_[t.model] == model : t.main)
                ms.push_back(t.ms);
    return ms;
}

} // namespace

void
runEpisodes(const Args &args, Report &report, SpanLog &spans)
{
    workloads::registerAllWorkloads();
    EpisodeRunner(args, report, spans).run();
}

} // namespace nsbench::perfbench
