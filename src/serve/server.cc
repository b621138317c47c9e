#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/profiler.hh"
#include "exec/pipeline.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"
#include "util/timer.hh"

namespace nsbench::serve
{

namespace
{

namespace fp = util::failpoints;

/** Most requests one stage-pipelined group takes. */
constexpr size_t kMaxPipelinedGroup = 8;

/** Default replica factory: the process-global workload registry. */
std::unique_ptr<core::Workload>
registryFactory(const std::string &name)
{
    return core::WorkloadRegistry::global().create(name);
}

/** Injected callback failure: the worker must survive it. */
struct FaultInjected : std::runtime_error
{
    FaultInjected() : std::runtime_error("injected callback fault") {}
};

/** Exponential backoff for retry @p retry (1-based), shift-capped. */
std::chrono::microseconds
backoffFor(int64_t base_us, int retry)
{
    int shift = std::min(retry - 1, 10);
    return std::chrono::microseconds(base_us << shift);
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), admission_(options_.queueCapacity)
{
    util::panicIf(options_.workloads.empty(),
                  "Server: no workloads to serve");
    util::panicIf(options_.workers <= 0,
                  "Server: need at least one worker");
    if (!options_.factory)
        options_.factory = registryFactory;

    if (options_.resultCache) {
        cache::ResultCacheOptions cacheOptions;
        cacheOptions.maxBytes = options_.cacheBytes;
        cacheOptions.shards = options_.cacheShards;
        cache_ =
            std::make_unique<cache::ResultCache>(cacheOptions);
    }
    // Probe each workload's seed sensitivity once: insensitive
    // workloads fold every episode seed onto one single-flight key
    // (and one cache entry). Construction is cheap (setUp is where
    // the cost lives).
    for (const auto &name : options_.workloads) {
        auto probe = options_.factory(name);
        util::panicIf(!probe,
                      "Server: factory returned null for " + name);
        seedSensitive_[name] = probe->seedSensitive();
    }

    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });

    // Block until every worker finished pre-warming its replicas so
    // the first request never observes setUp latency.
    std::unique_lock<std::mutex> lock(readyMu_);
    readyCv_.wait(lock, [this] {
        return readyWorkers_ == options_.workers;
    });
}

Server::~Server() { shutdown(); }

RequestStatus
Server::submit(const std::string &workload, uint64_t seed,
               Callback done, TimePoint deadline, CancelToken cancel)
{
    bool known = false;
    for (const auto &name : options_.workloads)
        if (name == workload) {
            known = true;
            break;
        }
    if (!known) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedUnknownWorkload);
        return RequestStatus::RejectedUnknownWorkload;
    }
    if (stopping_.load(std::memory_order_acquire)) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedShutdown);
        return RequestStatus::RejectedShutdown;
    }

    Request request;
    request.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    request.workload = workload;
    request.seed = seed;
    request.enqueue = ServeClock::now();
    request.deadline = deadline;
    request.done = std::move(done);
    request.cancel = std::move(cancel);

    if (deadline <= request.enqueue) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedDeadline);
        return RequestStatus::RejectedDeadline;
    }

    // Seed-insensitive workloads score identically for every episode
    // seed; canonicalise onto seed 0 so all of them share one key.
    const std::string key = cache::ResultCache::keyString(
        workload, options_.modelSeed,
        seedSensitive_.at(workload) ? seed : 0);
    request.key = key;
    if (cache_ && options_.cacheAdmissionLookup) {
        double score = 0.0;
        if (cache_->lookup(key, &score)) {
            metrics_.recordCacheHit(workload);
            metrics_.recordAdmitted(workload);
            Response response;
            response.status = RequestStatus::Ok;
            response.score = score;
            response.cached = true;
            response.shared = 1;
            response.latencySeconds = secondsBetween(
                request.enqueue, ServeClock::now());
            metrics_.recordOutcome(workload, response);
            deliver(workload, request.done, response);
            return RequestStatus::Ok;
        }
        metrics_.recordCacheMiss(workload);
    }

    // Single-flight: park this request behind an in-flight request
    // for the same key; the leader's completion fans out to it.
    Flight flight;
    flight.enqueue = request.enqueue;
    flight.deadline = request.deadline;
    flight.done = request.done;
    flight.cancel = request.cancel;
    if (flights_.join(key, std::move(flight)) ==
        cache::SingleFlight<Flight>::Role::Follower)
        return RequestStatus::Ok;

    // Overload gate: shed before the queue is hard-full so waits stay
    // bounded and the rejection is distinguishable from backpressure.
    // The failpoint forces a shed regardless of occupancy.
    bool shed = false;
    if (options_.shedAtOccupancy > 0.0) {
        auto limit = static_cast<size_t>(
            options_.shedAtOccupancy *
            static_cast<double>(admission_.capacity()));
        if (admission_.size() >= std::max<size_t>(limit, 1))
            shed = true;
    }
    // Adaptive gate: shed when queue *delay* (not depth) has stayed
    // over the target — the short-but-slow-queue overload mode.
    if (!shed && options_.targetSojournUs > 0 &&
        sojournOverloaded(request.enqueue)) {
        shed = true;
        metrics_.recordSojournShed(workload);
    }
    if (NSBENCH_FAILPOINT(fp::sites::kAdmissionShed))
        shed = true;

    if (shed || !admission_.tryPush(std::move(request))) {
        // tryPush fails both on a full queue and on a closed one;
        // closure means a shutdown raced this submit.
        RequestStatus status =
            shed ? RequestStatus::RejectedOverload
                 : admission_.closed()
                       ? RequestStatus::RejectedShutdown
                       : RequestStatus::RejectedQueueFull;
        metrics_.recordRejected(workload, status);
        abortFlight(workload, key, status);
        return status;
    }
    metrics_.recordAdmitted(workload);
    return RequestStatus::Ok;
}

void
Server::deliver(const std::string &workload, const Callback &done,
                const Response &response)
{
    if (!done)
        return;
    try {
        done(response);
        // Chaos site: the callback throws *after* its side effects
        // (models user code that records the result, then dies) —
        // the exactly-once delivery already happened; what's under
        // test is that the worker thread survives it.
        if (NSBENCH_FAILPOINT(fp::sites::kCallback))
            throw FaultInjected();
    } catch (...) {
        metrics_.recordCallbackFailure(workload);
    }
}

void
Server::abortFlight(const std::string &workload,
                    const std::string &key, RequestStatus status)
{
    std::vector<Flight> waiters = flights_.finish(key);
    TimePoint now = ServeClock::now();
    for (Flight &waiter : waiters) {
        metrics_.recordRejected(workload, status);
        Response rejected;
        rejected.status = status;
        rejected.latencySeconds = secondsBetween(waiter.enqueue, now);
        deliver(workload, waiter.done, rejected);
    }
}

Response
Server::call(const std::string &workload, uint64_t seed,
             TimePoint deadline)
{
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    RequestStatus status = submit(
        workload, seed,
        [promise](const Response &r) { promise->set_value(r); },
        deadline);
    if (status != RequestStatus::Ok) {
        Response rejected;
        rejected.status = status;
        return rejected;
    }
    return future.get();
}

void
Server::shutdown()
{
    stopping_.store(true, std::memory_order_release);
    admission_.close();
    if (joined_.exchange(true))
        return;
    // The workers drain the closed admission queue and exit once it
    // is empty, so every admitted request completes.
    for (auto &worker : workers_)
        if (worker.joinable())
            worker.join();
}

void
Server::noteSojourn(int64_t sojournUs)
{
    // EWMA with alpha = 1/8 over dispatch-time queue waits. A relaxed
    // CAS loop keeps the estimate exact enough for a shed gate while
    // staying off any lock the hot path shares.
    int64_t prev = sojournEwmaUs_.load(std::memory_order_relaxed);
    int64_t next;
    do {
        next = prev - prev / 8 + sojournUs / 8;
        // First sample seeds the estimate so a cold server does not
        // take eight dispatches to notice a stuck queue.
        if (prev == 0)
            next = sojournUs;
    } while (!sojournEwmaUs_.compare_exchange_weak(
        prev, next, std::memory_order_relaxed));
}

bool
Server::sojournOverloaded(TimePoint now)
{
    int64_t ewma = sojournEwmaUs_.load(std::memory_order_relaxed);
    int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now.time_since_epoch())
            .count();
    if (ewma <= options_.targetSojournUs) {
        sojournAboveSinceUs_.store(0, std::memory_order_relaxed);
        return false;
    }
    int64_t since =
        sojournAboveSinceUs_.load(std::memory_order_relaxed);
    if (since == 0) {
        // Racing submitters may both store; either timestamp is a
        // valid "first seen above" within the gate's tolerance.
        sojournAboveSinceUs_.store(now_us, std::memory_order_relaxed);
        return false;
    }
    return now_us - since >= options_.sojournGraceUs;
}

void
Server::workerMain(int workerIndex)
{
    (void)workerIndex;
    // Serve requests single-threaded on this worker: all parallelFor
    // kernels run inline, so concurrent workers never contend on the
    // shared pool.
    util::ThreadPool::SerialScope serial;

    std::map<std::string, Replica> replicas;
    for (const auto &name : options_.workloads)
        replicas.emplace(name, buildReplica(name));

    {
        std::lock_guard<std::mutex> lock(readyMu_);
        readyWorkers_++;
    }
    readyCv_.notify_all();

    while (auto request = admission_.pop())
        dispatch(replicas, std::move(*request));
}

void
Server::dispatch(std::map<std::string, Replica> &replicas,
                 Request first)
{
    auto it = replicas.find(first.workload);
    util::panicIf(it == replicas.end(),
                  "Server: request for unserved workload " +
                      first.workload);
    Replica &replica = it->second;
    const std::string workload = first.workload;

    // Stage pipelining needs two or more executions to overlap: take
    // the same-workload requests queued right behind this one. Each
    // is a distinct key, since single-flight parked the duplicates.
    std::vector<Request> group;
    group.push_back(std::move(first));
    if (options_.pipelineDepth > 0 && replica->stageCount() > 1)
        admission_.tryPopWhile(
            [&](const Request &next) {
                return next.workload == workload;
            },
            kMaxPipelinedGroup - 1, &group);
    const int batchSize = static_cast<int>(group.size());
    metrics_.recordBatch(workload, group.size());

    // Feed the adaptive shed gate and drop what no longer needs a
    // run. The group's mean queue sojourn is one EWMA sample
    // (per-request folding would just weight bursts).
    TimePoint now = ServeClock::now();
    if (options_.targetSojournUs > 0) {
        int64_t total_us = 0;
        for (const Request &request : group)
            total_us +=
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - request.enqueue)
                    .count();
        noteSojourn(total_us / batchSize);
    }
    std::vector<Request> live;
    for (Request &request : group)
        if (prune(request, now))
            live.push_back(std::move(request));
    execute(replica, std::move(live), batchSize);
}

bool
Server::prune(Request &request, TimePoint now)
{
    bool canceled = request.cancel &&
                    request.cancel->load(std::memory_order_relaxed);
    if (request.pruned || (!canceled && request.deadline > now))
        return true;
    Response pruned;
    pruned.status =
        canceled ? RequestStatus::Canceled : RequestStatus::Expired;
    pruned.latencySeconds = secondsBetween(request.enqueue, now);
    pruned.queueSeconds = pruned.latencySeconds;
    metrics_.recordOutcome(request.workload, pruned);
    deliver(request.workload, request.done, pruned);
    request.pruned = true;
    return !flights_.finishIfIdle(request.key);
}

void
Server::execute(Replica &replica, std::vector<Request> live,
                int batchSize)
{
    struct Pending
    {
        Request request;
        Response outcome;
        double stall = 0.0; ///< This round's injected delay.
        int episode = -1;   ///< Index in this round's run; -1 = faulted.
    };
    std::vector<Pending> pending(live.size());
    for (size_t i = 0; i < live.size(); i++) {
        pending[i].request = std::move(live[i]);
        pending[i].outcome.batchSize = batchSize;
    }

    // Round by round: the worker sites fire for each live request
    // before the run (a crash rebuilds the replica on the spot), the
    // requests that passed them run as one episode train, and every
    // fault or failed episode retries in the next round. Retries are
    // bounded with exponential backoff, and each backoff re-prunes,
    // so a long outage never runs work whose deadline already passed
    // or whose submitter already gave up (a wire Cancel).
    TimePoint start = ServeClock::now();
    for (int round = 1; !pending.empty(); round++) {
        std::vector<uint64_t> seeds;
        for (Pending &p : pending) {
            // A firing delay site sleeps in evaluate() and returns
            // false: the stall lands inside this request's service
            // time, as a slow-not-dead server would show it.
            util::WallTimer timer;
            NSBENCH_FAILPOINT(fp::sites::kWorkerDelay);
            p.stall = timer.elapsed();
            p.episode = -1;
            if (NSBENCH_FAILPOINT(fp::sites::kWorkerCrash)) {
                rebuildReplica(p.request.workload, replica);
            } else if (!NSBENCH_FAILPOINT(fp::sites::kWorkerRun)) {
                p.episode = static_cast<int>(seeds.size());
                seeds.push_back(p.request.seed);
            }
        }

        // Always re-entered through the replica pointer (never a
        // cached reference): a crash may have swapped in a fresh one.
        exec::PipelineResult piped;
        if (!seeds.empty()) {
            exec::PipelineOptions pipeOptions;
            pipeOptions.depth = std::max(options_.pipelineDepth, 1);
            piped = exec::runPipelined(*replica, seeds, pipeOptions);
        }

        std::vector<Pending> failed;
        for (Pending &p : pending) {
            Response &outcome = p.outcome;
            auto e = static_cast<size_t>(p.episode);
            if (p.episode >= 0 && !piped.errors[e]) {
                outcome.score = piped.scores[e];
                outcome.serviceSeconds = p.stall;
                for (double dt : piped.episodeStageSeconds[e])
                    outcome.serviceSeconds += dt;
                outcome.neuralSeconds = piped.neuralSeconds[e];
                outcome.symbolicSeconds = piped.symbolicSeconds[e];
                outcome.pipelined = seeds.size() >= 2;
                metrics_.recordExecution(p.request.workload,
                                         outcome.serviceSeconds);
                complete(p.request, outcome, start);
                continue;
            }
            metrics_.recordWorkerFault(p.request.workload);
            if (outcome.retries < options_.maxRetries) {
                outcome.retries++;
                metrics_.recordRetry(p.request.workload);
                failed.push_back(std::move(p));
            } else if (double stale = 0.0;
                       cache_ && options_.staleFallback &&
                       cache_->lookup(p.request.key, &stale)) {
                // Serve-stale fallback: answer from the last cached
                // score for this key (byte-exact by the determinism
                // contract, but marked stale — the mechanism is
                // generic).
                outcome.score = stale;
                outcome.cached = true;
                outcome.stale = true;
                complete(p.request, outcome, start);
            } else {
                outcome.status = RequestStatus::Failed;
                complete(p.request, outcome, start);
            }
        }
        pending.clear();
        if (failed.empty())
            break;
        std::this_thread::sleep_for(
            backoffFor(options_.retryBackoffUs, round));
        TimePoint now = ServeClock::now();
        for (Pending &p : failed)
            if (prune(p.request, now))
                pending.push_back(std::move(p));
    }
}

void
Server::complete(const Request &request, Response outcome,
                 TimePoint start)
{
    const std::string &workload = request.workload;
    const bool ok = outcome.status == RequestStatus::Ok;
    if (cache_ && ok && !outcome.stale) {
        uint64_t evicted = cache_->insert(request.key, outcome.score);
        metrics_.recordCacheEvictions(workload, evicted);
    }
    // Insert-then-finish: a request arriving in between hits the
    // fresh cache entry directly, so nobody can join a dead flight.
    std::vector<Flight> followers = flights_.finish(request.key);
    metrics_.recordSingleFlight(workload, followers.size());

    // A follower's status depends only on its own state: Canceled
    // once its own token is set, Expired once its own deadline has
    // passed, else the shared outcome. Everyone answered Ok shares
    // the execution, and the metrics divide its phase split by that
    // count, so per-workload sums stay one-profiler-pass exact.
    TimePoint end = ServeClock::now();
    std::vector<RequestStatus> statuses;
    statuses.reserve(followers.size());
    for (const Flight &follower : followers) {
        if (follower.cancel &&
            follower.cancel->load(std::memory_order_relaxed))
            statuses.push_back(RequestStatus::Canceled);
        else if (ok && follower.deadline <= end)
            statuses.push_back(RequestStatus::Expired);
        else
            statuses.push_back(outcome.status);
    }
    if (ok)
        outcome.shared =
            (request.pruned ? 0 : 1) +
            static_cast<int>(std::count(statuses.begin(), statuses.end(),
                                        RequestStatus::Ok));
    if (!request.pruned) {
        Response response = outcome;
        response.latencySeconds = secondsBetween(request.enqueue, end);
        response.queueSeconds = secondsBetween(request.enqueue, start);
        metrics_.recordOutcome(workload, response);
        deliver(workload, request.done, response);
    }
    for (size_t i = 0; i < followers.size(); i++) {
        Response response = outcome;
        response.status = statuses[i];
        response.latencySeconds =
            secondsBetween(followers[i].enqueue, end);
        response.queueSeconds =
            response.status == outcome.status
                ? std::max(0.0, response.latencySeconds -
                                    response.serviceSeconds)
                : response.latencySeconds;
        metrics_.recordAdmitted(workload);
        metrics_.recordOutcome(workload, response);
        deliver(workload, followers[i].done, response);
    }
}

Server::Replica
Server::buildReplica(const std::string &name) const
{
    Replica replica = options_.factory(name);
    util::panicIf(!replica, "Server: factory returned null for " + name);
    // Pre-warm under a private profiler so setUp allocations never
    // pollute the process-global one. This thread owns it, so every
    // op applies directly and nothing stays buffered once it goes.
    core::Profiler setup;
    core::Profiler::ThreadTargetScope target(setup);
    replica->setUp(options_.modelSeed);
    return replica;
}

void
Server::rebuildReplica(const std::string &name, Replica &replica)
{
    try {
        replica = buildReplica(name);
    } catch (...) {
        // Build-then-swap: a failed rebuild (setUp can itself hit an
        // injected fault) keeps the old replica in place; the retry
        // loop decides what happens to the request.
        return;
    }
    metrics_.recordReplicaReplaced(name);
}

} // namespace nsbench::serve
