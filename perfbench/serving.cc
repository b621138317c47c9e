/**
 * @file
 * The serve-loopback workload: open-loop arrivals over TCP loopback.
 *
 * The benchmark owns the generator, so a change to serve::runLoadgen
 * cannot change the measurement. The schedule is a pure function of
 * the seed: a fixed number of arrivals (rate x seconds) placed as
 * sorted uniform times over the window, which is a Poisson process
 * conditioned on its count, so throughput does not vary with the
 * draw. Every request is timed from its due time; refused requests
 * and missing replies count as failures that missed every latency.
 *
 * After the window a replica built by the benchmark re-runs a fixed
 * sample of the served (model, seed) pairs in process, and every Ok
 * score for those pairs must match it bit for bit. The same direct
 * pass times warm episodes of each of the seven serve presets.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench.hh"
#include "net/client.hh"
#include "net/tcp_server.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/threadpool.hh"
#include "workloads/register.hh"

namespace nsbench::perfbench
{

namespace
{

constexpr uint64_t modelSeed = 42;
constexpr int workers = 2;
constexpr int connections = 2;
constexpr int pipelineDepth = 2;
/** How long the window waits for the last replies. */
constexpr double drainSeconds = 30.0;
/** Served seeds per model re-run in process after the window. */
constexpr size_t directCycles = 30;

/** Pure uniform stream in [0, 1) keyed by the run seed. */
class Uniform
{
  public:
    explicit Uniform(uint64_t seed) : state_(mix64(seed)) {}

    double
    next()
    {
        state_ = mix64(state_);
        return static_cast<double>(state_ >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t state_;
};

struct Arrival
{
    double due = 0.0;  ///< Seconds after the window opens.
    size_t model = 0;  ///< Index into the mix.
    uint64_t seed = 0; ///< Episode seed.
};

/** Everything the generator and the client callbacks record. */
struct Slot
{
    double sent = 0.0;
    double received = 0.0;
    bool answered = false;
    serve::Response response;
};

/** The server, its TCP front end and the benchmark's connections. */
struct Stack
{
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<net::TcpServer> front;
    std::vector<std::unique_ptr<net::Client>> clients;

    void
    stop()
    {
        for (auto &client : clients)
            client->close();
        clients.clear();
        if (front)
            front->shutdown();
        if (server)
            server->shutdown();
        front.reset();
        server.reset();
    }
};

class ServeRunner
{
  public:
    ServeRunner(const Args &args, Report &report, SpanLog &spans)
        : args_(args), report_(report), spans_(spans)
    {}

    void run();

  private:
    void schedule();
    void start(Stack &s, bool traced);
    void window(Stack &s);
    /** Runs @p afterCycle after each cycle of the in-process pass. */
    void directPass(const HostCeilings &host,
                    const std::function<void()> &afterCycle);
    void serveMetrics(Stack &s);
    void recordSpans(size_t i);

    const Args &args_;
    Report &report_;
    SpanLog &spans_;
    std::vector<std::string> models_;
    std::vector<double> weights_;
    std::vector<bool> seedSensitive_;
    std::vector<Arrival> arrivals_;
    std::vector<Slot> slots_;
    double windowStart_ = 0.0;
    double windowCpu_ = 0.0;
    std::mutex mu_;
    std::condition_variable answeredCv_;
    uint64_t answered_ = 0;
    /** Resident set sizes sampled by the generator. */
    std::vector<double> rssMib_;
    /** Direct-pass episode times per model (allModels() order). */
    std::vector<std::vector<double>> episodeMs_ =
        std::vector<std::vector<double>>(allModels().size());
};

void
ServeRunner::schedule()
{
    for (const auto &[name, weight] : args_.mix) {
        models_.push_back(name);
        weights_.push_back(weight);
        seedSensitive_.push_back(
            serve::serveFactory(name)->seedSensitive());
    }
    std::vector<double> rankCdf(args_.universe);
    double total = 0.0;
    for (uint64_t k = 0; k < args_.universe; k++)
        rankCdf[k] = total +=
            std::pow(static_cast<double>(k + 1), -args_.zipf);
    double weightTotal = 0.0;
    for (double w : weights_)
        weightTotal += w;

    Uniform u(args_.seed);
    const size_t count = static_cast<size_t>(
        std::llround(args_.rate * args_.seconds));
    arrivals_.resize(count);
    for (Arrival &a : arrivals_)
        a.due = u.next() * args_.seconds;
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.due < b.due;
              });
    for (Arrival &a : arrivals_) {
        double pick = u.next() * weightTotal;
        a.model = 0;
        while (a.model + 1 < weights_.size() && pick >= weights_[a.model]) {
            pick -= weights_[a.model];
            a.model++;
        }
        // Seed-insensitive models share one cache entry whatever the
        // seed; the rank only shapes the sensitive models' reuse.
        const uint64_t rank =
            std::lower_bound(rankCdf.begin(), rankCdf.end(),
                             u.next() * total) -
            rankCdf.begin();
        a.seed = mix64(args_.seed * 7919ull + a.model * 104729ull + rank);
    }
}

void
ServeRunner::start(Stack &s, bool traced)
{
    serve::ServerOptions options;
    options.workloads = models_;
    options.workers = workers;
    options.modelSeed = modelSeed;
    options.resultCache = true;
    options.pipelineDepth = pipelineDepth;
    options.factory = serve::serveFactory;

    double t0 = now();
    s.server = std::make_unique<serve::Server>(options);
    double t1 = now();
    s.front = std::make_unique<net::TcpServer>(*s.server);
    double t2 = now();
    net::ClientOptions clientOptions;
    clientOptions.port = s.front->port();
    for (int c = 0; c < connections; c++) {
        s.clients.push_back(std::make_unique<net::Client>(clientOptions));
        if (!s.clients.back()->connect())
            report_.fail("client could not connect");
    }
    double t3 = now();
    if (traced) {
        spans_.add(0, 0, "serve", "serve::Server", t0, t1);
        spans_.add(0, 0, "net", "net::TcpServer", t1, t2);
        spans_.add(0, 0, "net", "net::Client connect", t2, t3);
    }
}

void
ServeRunner::recordSpans(size_t i)
{
    const Slot &slot = slots_[i];
    const Arrival &a = arrivals_[i];
    const uint64_t trace = i + 1;
    const double due = windowStart_ + a.due;
    const uint64_t root = spans_.reserve();
    spans_.add(trace, root, "bench", "generator lag", due, slot.sent);
    uint64_t wire = spans_.add(trace, root, "net", "wire", slot.sent,
                               slot.received);
    // The frame carries the server's own intervals; centre them in the
    // round trip, which splits the transport time evenly both ways.
    const serve::Response &r = slot.response;
    double s0 = slot.sent +
                std::max(0.0, (slot.received - slot.sent) -
                                  r.latencySeconds) / 2.0;
    uint64_t server = spans_.add(trace, wire, "serve", "server",
                                 s0, s0 + r.latencySeconds);
    spans_.add(trace, server, "serve", "queue", s0, s0 + r.queueSeconds);
    spans_.add(trace, server, "workloads",
               "run " + models_[a.model],
               s0 + r.queueSeconds,
               s0 + r.queueSeconds + r.serviceSeconds);
    spans_.add(trace, 0, "bench", "request " + models_[a.model], due,
               slot.received, root);
}

void
ServeRunner::window(Stack &s)
{
    slots_.assign(arrivals_.size(), Slot{});
    std::vector<bool> submitted(arrivals_.size(), false);
    uint64_t expected = 0;
    const double cpu0 = cpuSeconds();
    windowStart_ = now() + 0.05;
    for (size_t i = 0; i < arrivals_.size(); i++) {
        const Arrival &a = arrivals_[i];
        sleepUntil(windowStart_ + a.due);
        slots_[i].sent = now();
        if (i % 16 == 0)
            rssMib_.push_back(rssMib());
        auto done = [this, i](const serve::Response &response) {
            Slot &slot = slots_[i];
            slot.received = now();
            slot.response = response;
            if (spans_.enabled() &&
                response.status == serve::RequestStatus::Ok)
                recordSpans(i);
            std::lock_guard<std::mutex> lock(mu_);
            slot.answered = true;
            answered_++;
            answeredCv_.notify_all();
        };
        serve::RequestStatus status =
            s.clients[i % s.clients.size()]->submit(models_[a.model],
                                                     a.seed, done);
        submitted[i] = status == serve::RequestStatus::Ok;
        if (submitted[i])
            expected++;
        else
            report_.fail(std::string("request refused: ") +
                         serve::statusName(status));
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        answeredCv_.wait_for(
            lock,
            std::chrono::duration<double>(drainSeconds),
            [&] { return answered_ == expected; });
    }
    windowCpu_ = cpuSeconds() - cpu0;
    // Closing the clients fails whatever is still pending, so every
    // callback has fired before the slots are read. The front end
    // counts a reply's bytes just after sending it, so it is shut down
    // too, before its counters are read.
    for (auto &client : s.clients)
        client->close();
    s.front->shutdown();
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < slots_.size(); i++)
        if (submitted[i] && !slots_[i].answered)
            report_.fail("no reply");
}

void
ServeRunner::serveMetrics(Stack &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    // A failed or refused request counts as waiting longer than any
    // answered one could have: the whole window plus the drain.
    const double missedMs =
        (args_.seconds + drainSeconds) * 1e3;
    std::vector<double> latencyMs, lagMs, queueMs, serviceMs, overheadMs;
    uint64_t ok = 0, executed = 0, sharedExec = 0, pipelined = 0;
    double lastReceived = windowStart_;
    double batchTotal = 0.0;
    for (size_t i = 0; i < slots_.size(); i++) {
        const Slot &slot = slots_[i];
        const double due = windowStart_ + arrivals_[i].due;
        lagMs.push_back((slot.sent - due) * 1e3);
        report_.attempt();
        const serve::Response &r = slot.response;
        const bool good = slot.answered &&
                          r.status == serve::RequestStatus::Ok &&
                          r.score >= 0.0 && r.score <= 1.0;
        if (slot.answered && !good)
            report_.fail(std::string("bad response: ") +
                         serve::statusName(r.status));
        if (!good) {
            latencyMs.push_back(missedMs);
            continue;
        }
        ok++;
        lastReceived = std::max(lastReceived, slot.received);
        latencyMs.push_back((slot.received - due) * 1e3);
        overheadMs.push_back(
            ((slot.received - slot.sent) - r.latencySeconds) * 1e3);
        if (r.cached)
            continue;
        executed++;
        queueMs.push_back(r.queueSeconds * 1e3);
        serviceMs.push_back(r.serviceSeconds * 1e3);
        batchTotal += r.batchSize;
        sharedExec += r.shared > 1;
        pipelined += r.pipelined;
    }
    const uint64_t n = slots_.size();
    // Throughput over the span actually served: from the window's
    // opening to the last answer.
    report_.add("episodes_per_s",
                static_cast<double>(ok) / (lastReceived - windowStart_),
                "1/s", ok);
    report_.add("latency_p50_ms", quantile(latencyMs, 0.50), "ms", n);
    report_.add("latency_p99_ms", quantile(latencyMs, 0.99), "ms", n);
    report_.add("cpu_ms_per_episode",
                windowCpu_ / static_cast<double>(std::max<uint64_t>(ok, 1)) *
                    1e3,
                "ms", ok);

    serve::WorkloadMetrics total = s.server->metrics().total();
    serve::NetStats net = s.server->metrics().netStats();
    const double exec = static_cast<double>(std::max<uint64_t>(executed, 1));
    report_.add("serve.queue_wait_p50_ms", quantile(queueMs, 0.50), "ms",
                executed);
    report_.add("serve.queue_wait_p99_ms", quantile(queueMs, 0.99), "ms",
                executed);
    report_.add("serve.service_p50_ms", quantile(serviceMs, 0.50), "ms",
                executed);
    report_.add("serve.service_p99_ms", quantile(serviceMs, 0.99), "ms",
                executed);
    report_.add("serve.batch_size_mean", batchTotal / exec, "count",
                executed);
    report_.add("serve.shared_frac", sharedExec / exec, "ratio", executed);
    report_.add("serve.executions_per_request",
                static_cast<double>(total.executions) /
                    static_cast<double>(std::max<uint64_t>(ok, 1)),
                "ratio", ok);
    report_.add("serve.retries", static_cast<double>(total.retries),
                "count", n);
    report_.add("serve.rejected", static_cast<double>(total.rejected()),
                "count", n);
    const uint64_t lookups = total.cacheHits + total.cacheMisses;
    report_.add("cache.hit_frac",
                lookups ? static_cast<double>(total.cacheHits) /
                              static_cast<double>(lookups)
                        : 0.0,
                "ratio", lookups);
    report_.add("cache.singleflight_followers",
                static_cast<double>(total.singleFlightShared), "count", n);
    const cache::ResultCache *cache = s.server->resultCache();
    report_.add("cache.inserts",
                cache ? static_cast<double>(cache->stats().insertions) : 0.0,
                "count", n);
    report_.add("cache.evictions",
                static_cast<double>(total.cacheEvictions), "count", n);
    report_.add("exec.pipelined_frac", pipelined / exec, "ratio",
                executed);
    report_.add("net.overhead_p50_ms", quantile(overheadMs, 0.50), "ms",
                ok);
    report_.add("net.overhead_p99_ms", quantile(overheadMs, 0.99), "ms",
                ok);
    report_.add("net.bytes_per_request",
                static_cast<double>(net.bytesRead + net.bytesWritten) /
                    static_cast<double>(std::max<uint64_t>(n, 1)),
                "B", n);
    report_.add("bench.sched_lag_p99_ms", quantile(lagMs, 0.99), "ms", n);
    report_.add("bench.trace_overhead_frac",
                spans_.costSeconds() / args_.seconds, "ratio", n);
}

void
ServeRunner::directPass(const HostCeilings &host,
                        const std::function<void()> &afterCycle)
{
    // Served scores by (model, seed); insensitive models under one key.
    std::map<std::pair<size_t, uint64_t>, std::vector<double>> served;
    for (size_t i = 0; i < slots_.size(); i++) {
        const serve::Response &r = slots_[i].response;
        if (!slots_[i].answered || r.status != serve::RequestStatus::Ok)
            continue;
        const Arrival &a = arrivals_[i];
        served[{a.model, seedSensitive_[a.model] ? a.seed : 0}].push_back(
            r.score);
    }

    // One replica of every serve preset. Each model's sample is its
    // first distinct served seeds in schedule order, padded with fresh
    // seeds for models the mix does not serve.
    struct Direct
    {
        std::string name;
        std::unique_ptr<core::Workload> replica;
        bool isServed = false;
        size_t mixIndex = 0;
        std::vector<uint64_t> seeds;
        OpSnapshot work;
    };
    std::vector<Direct> direct;
    for (size_t key = 0; key < allModels().size(); key++) {
        Direct d;
        d.name = allModels()[key];
        auto mixIt = std::find(models_.begin(), models_.end(), d.name);
        d.isServed = mixIt != models_.end();
        d.mixIndex = mixIt - models_.begin();
        std::set<uint64_t> seen;
        for (const Arrival &a : arrivals_)
            if (d.isServed && a.model == d.mixIndex &&
                d.seeds.size() < directCycles && seen.insert(a.seed).second)
                d.seeds.push_back(a.seed);
        for (uint64_t e = 0; d.seeds.size() < directCycles; e++)
            d.seeds.push_back(mix64(args_.seed ^ mix64(key * 7777ull + e)));
        d.replica = serve::serveFactory(d.name);
        d.replica->setUp(modelSeed);
        d.replica->reseedEpisodes(mix64(key + 99));
        d.replica->run(); // warm-up, untimed
        direct.push_back(std::move(d));
    }

    // Cycles visit every model once, so each model samples the whole
    // pass; each model reports the low quantile of its times
    // (modelQuantile).
    core::Profiler &profiler = core::Profiler::processGlobal();
    const bool trace = args_.trace;
    double onSeconds = 0.0, offSeconds = 0.0;
    for (size_t c = 0; c < directCycles; c++) {
        for (size_t key = 0; key < direct.size(); key++) {
            Direct &d = direct[key];
            const uint64_t seed = d.seeds[c];
            for (bool profiled : {true, false}) {
                if (!profiled && !trace)
                    break;
                profiler.setEnabled(profiled);
                OpSnapshot before;
                if (trace && profiled)
                    before = OpSnapshot::take(profiler);
                report_.attempt();
                double t0 = now(), t1 = t0, t2 = t0, score = 0.0;
                try {
                    d.replica->reseedEpisodes(seed);
                    t1 = now();
                    score = d.replica->run();
                    t2 = now();
                } catch (const std::exception &e) {
                    report_.fail(d.name + " direct episode threw: " +
                                 e.what());
                    continue;
                }
                if (!profiled) {
                    offSeconds += t2 - t0;
                    continue;
                }
                onSeconds += t2 - t0;
                episodeMs_[key].push_back((t2 - t0) * 1e3);
                if (trace) {
                    d.work = d.work.plus(
                        OpSnapshot::take(profiler).minus(before));
                    uint64_t id = spans_.add(0, 0, "bench",
                                             "episode " + d.name, t0, t2);
                    spans_.add(0, id, "data", "reseedEpisodes", t0, t1);
                    spans_.add(0, id, "workloads", "run " + d.name, t1,
                               t2);
                }
                if (!(score >= 0.0 && score <= 1.0))
                    report_.fail(d.name + " direct score outside [0,1]");
                if (!d.isServed)
                    continue;
                auto it = served.find(
                    {d.mixIndex, seedSensitive_[d.mixIndex] ? seed : 0});
                if (it == served.end())
                    continue;
                for (double s : it->second)
                    if (std::memcmp(&s, &score, sizeof(double)) != 0)
                        report_.failAll(d.name + " served score differs "
                                                 "from the direct run");
            }
        }
        profiler.setEnabled(true);
        afterCycle();
    }

    if (!trace)
        return;

    OpSnapshot work;
    std::string perModel = "{";
    for (const Direct &d : direct) {
        work = work.plus(d.work);
        double phased = d.work.neuralSeconds + d.work.symbolicSeconds;
        report_.add("workloads." + d.name + ".symbolic_share",
                    phased > 0.0 ? d.work.symbolicSeconds / phased : 0.0,
                    "ratio", directCycles);
        const std::vector<double> &ms = episodeMs_[&d - direct.data()];
        report_.add("workloads." + d.name + ".episode_ms",
                    quantile(ms, modelQuantile), "ms", ms.size());
        report_.add("workloads." + d.name + ".episode_p90_ms",
                    quantile(ms, 0.90), "ms", ms.size());
        perModel += std::string(perModel.size() > 1 ? ", " : "") + "\"" +
                    d.name + "\": " + d.work.topOpsJson(8);
    }
    const uint64_t episodes = directCycles * direct.size();
    report_.factJson("profile_by_model", perModel + "}");
    addOpMetrics(report_, work, episodes, work, episodes, host);
    report_.add("data.reseed_ms_per_episode",
                spans_.selfSecondsOf("reseedEpisodes") /
                    static_cast<double>(episodes) * 1e3,
                "ms", episodes);
    report_.add("core.profiler_overhead_frac",
                offSeconds > 0.0 ? onSeconds / offSeconds - 1.0 : 0.0,
                "ratio", episodes);
}

void
ServeRunner::run()
{
    util::ThreadPool::setGlobalThreads(args_.width);
    schedule();

    std::vector<double> setupSeconds;
    auto setUp = [&](Stack &stack, bool traced) {
        double t0 = now();
        start(stack, traced);
        setupSeconds.push_back(now() - t0);
    };
    Stack s;
    setUp(s, args_.trace);

    // Warm each replica's code paths and put the seed-insensitive
    // models' canonical entries in the cache, then start counting.
    for (size_t m = 0; m < models_.size(); m++)
        for (int i = 0; i < workers; i++)
            s.clients[0]->call(models_[m], mix64(~args_.seed + m * 31 + i));
    // The front end counts the last warm-up reply's bytes just after
    // sending it, so the client can see the reply first; let the count
    // land before the counters are reset, or it leaks into the window.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s.server->resetMetrics();

    window(s);
    serveMetrics(s);
    report_.add("rss_mib", median(rssMib_), "MiB", rssMib_.size());
    s.stop();

    HostCeilings host;
    if (args_.trace)
        host = measureHost(args_.width, report_);
    // One more set-up follows each cycle of the in-process pass, so
    // the median samples a stretch of the run rather than one moment:
    // the two workers pre-warm in parallel, and on a shared host how
    // parallel they get comes and goes for seconds at a time.
    directPass(host, [&] {
        Stack extra;
        setUp(extra, false);
        extra.stop();
    });
    report_.add("setup_s", median(setupSeconds), "s", setupSeconds.size());
    report_.factJson("setup_seconds", jsonArray(setupSeconds));

    if (!args_.trace) {
        report_.add("ok_frac", report_.okFraction(), "ratio",
                    report_.attempted);
    }
}

} // namespace

void
runServe(const Args &args, Report &report, SpanLog &spans)
{
    workloads::registerAllWorkloads();
    ServeRunner(args, report, spans).run();
}

} // namespace nsbench::perfbench
