/**
 * @file
 * The neuro-symbolic inference server.
 *
 * A Server owns the admission queue and a pool of worker threads.
 * Each worker pre-warms one replica of every served workload — setUp
 * runs once per replica and is reused across requests — then pops
 * admitted requests straight off the admission queue.
 *
 * Determinism contract: a workload's score is a pure function of
 * (model seed, episode seed). The server relies on this in both
 * directions. Replicas built from the same model seed are
 * interchangeable, so a request's score does not depend on which
 * worker runs it or on arrival order. And equal requests are
 * *mergeable*: submit() keys every request by (workload, model seed,
 * effective episode seed) — seed 0 for workloads that declare
 * seedSensitive() == false — and single-flight parks a request whose
 * key is already in flight behind that key's leader, fanning the
 * leader's score out when it lands. That is the server's one merge
 * of concurrent duplicates, and where its throughput gain comes from
 * on CPU-bound workloads: every request a worker pops is a distinct
 * in-flight key.
 *
 * Every execution goes through exec::runPipelined: a lone request
 * runs its stages in turn on the worker, a pipelined group overlaps
 * them on stage threads. Either way kernels run inline
 * (ThreadPool::SerialScope) under per-stage profilers, so each
 * response carries an exact per-execution neural/symbolic phase
 * split and concurrent workers never contend on the shared pool.
 */

#ifndef NSBENCH_SERVE_SERVER_HH
#define NSBENCH_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hh"
#include "cache/single_flight.hh"
#include "core/workload.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/request.hh"

namespace nsbench::serve
{

/** Server construction knobs. */
struct ServerOptions
{
    /** Workloads this server hosts (replica of each per worker). */
    std::vector<std::string> workloads;
    int workers = 2;              ///< Worker threads (replica sets).
    size_t queueCapacity = 256;   ///< Admission queue bound.
    uint64_t modelSeed = 42;      ///< setUp seed for every replica.
    /**
     * Remembers completed scores: repeats of a completed (workload,
     * episode seed) are answered at admission without a run(), and
     * the stale fallback below has a score to serve. Valid because
     * scores are pure in (model seed, episode seed) — the determinism
     * contract above. Concurrent duplicates are merged by
     * single-flight whether or not this is on. Off by default so a
     * server's execution count follows its traffic; the CLI opts in
     * with --cache on.
     */
    bool resultCache = false;
    uint64_t cacheBytes = 64ull << 20; ///< Result-cache byte budget.
    size_t cacheShards = 8;            ///< Result-cache shard count.
    /**
     * Consult the result cache at admission (the hit-serving path).
     * Off, the cache still records completions and still backs the
     * serve-stale fallback, but every request reaches a worker —
     * "fallback-only" mode, used by the chaos tests to exercise the
     * failure path deterministically.
     */
    bool cacheAdmissionLookup = true;
    /**
     * Resilience knobs. With no faults (empty failpoint spec, no
     * exceptions out of run()) none of these change any behaviour:
     * retries only trigger on a throwing run(), shedding is disabled
     * at 0, and the stale fallback only runs after a failure.
     */
    int maxRetries = 2;           ///< Re-attempts for a failed run().
    int64_t retryBackoffUs = 200; ///< First backoff; doubles per retry.
    /**
     * Overload load-shedding: reject with RejectedOverload when the
     * admission queue is at least this full (fraction of capacity).
     * 0 disables; 0.9 sheds at 90% occupancy, keeping headroom so
     * queue waits stay bounded under sustained overload.
     */
    double shedAtOccupancy = 0.0;
    /**
     * Queue-delay-based adaptive shedding (CoDel-style), complementing
     * the static occupancy gate above: workers maintain an EWMA of
     * observed queue sojourn (submit -> dispatch), and when it has
     * stayed above this target for longer than a short grace interval
     * submit() sheds with RejectedOverload until the sojourn recovers.
     * Catches the overload mode occupancy cannot see — a queue that is
     * short but *draining slowly* (e.g. a degraded worker). 0 = off.
     */
    int64_t targetSojournUs = 0;
    /** How long the sojourn EWMA must exceed the target before the
     *  adaptive gate starts shedding (absorbs bursts). */
    int64_t sojournGraceUs = 100000;
    /**
     * On a run() that still fails after every retry, serve the last
     * cached score for the key (marked stale) instead of failing the
     * request. Needs the result cache; by the determinism contract
     * the stale score equals the fresh one, so this fallback is
     * byte-exact — the generic mechanism matters, not the bytes.
     */
    bool staleFallback = true;
    /**
     * Intra-replica stage pipelining (opt-in, 0 = off). Every request
     * executes through exec::runPipelined; a lone request runs its
     * stages in turn on the worker. With pipelining on, a worker that
     * pops a request for a staged workload (stageCount() > 1) also
     * takes the requests for that workload waiting at the head of the
     * admission queue, up to 8 in all, and runs the group as one
     * episode train with this inter-stage queue depth, overlapping
     * execution i's symbolic stage with execution i+1's neural stage.
     * Other workloads stay queued for the other workers. Scores stay
     * byte-identical either way (the staged-interface determinism
     * contract), and faults stay per request: a failed episode
     * retries alone while the rest of its group completes.
     */
    int pipelineDepth = 0;
    /**
     * Replica factory; defaults to the global workload registry.
     * Override to serve reduced-size configs (e.g. a serve-sized
     * NVSA) without touching the registry.
     */
    std::function<std::unique_ptr<core::Workload>(const std::string &)>
        factory;
};

/**
 * Serving runtime over pre-warmed workload replicas.
 */
class Server
{
  public:
    /**
     * Builds the replicas and starts the worker threads.
     * Blocks until every worker has finished pre-warming, so the
     * first request never pays setUp cost.
     */
    explicit Server(ServerOptions options);

    /** Graceful shutdown (drains admitted work). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Submits a request. Returns Ok when admitted — the callback will
     * fire exactly once later — or a rejection status, in which case
     * the callback is never invoked.
     *
     * A non-null @p cancel token makes the request abandonable: if
     * the submitter sets the token while the request is still queued,
     * the worker answers Canceled without running it; a canceled
     * single-flight follower answers Canceled when its leader lands.
     * Best-effort — cache hits and already-executing requests
     * complete normally; the exactly-once callback contract holds
     * either way. A canceled leader answers Canceled alone: its
     * followers still get the shared run.
     */
    RequestStatus submit(const std::string &workload, uint64_t seed,
                         Callback done,
                         TimePoint deadline = noDeadline(),
                         CancelToken cancel = nullptr);

    /** Blocking convenience wrapper: submit and wait for completion. */
    Response call(const std::string &workload, uint64_t seed,
                  TimePoint deadline = noDeadline());

    /**
     * Stops admission, waits for every admitted request to complete,
     * and joins all threads. Idempotent; also run by the destructor.
     */
    void shutdown();

    /** The metrics sink (live; snapshot via its accessors). */
    ServerMetrics &metrics() { return metrics_; }

    /** Clears metrics between load-sweep operating points. */
    void resetMetrics() { metrics_.reset(); }

    /** Served workload names, in option order. */
    const std::vector<std::string> &workloads() const
    {
        return options_.workloads;
    }

    /** The options the server was built with. */
    const ServerOptions &options() const { return options_; }

    /** The result cache, or nullptr when disabled. */
    const cache::ResultCache *
    resultCache() const
    {
        return cache_.get();
    }

  private:
    /** A worker's pre-warmed instance of one served workload. */
    using Replica = std::unique_ptr<core::Workload>;

    /** A parked single-flight follower awaiting its leader's result. */
    struct Flight
    {
        TimePoint enqueue{};
        TimePoint deadline = TimePoint::max();
        Callback done;
        CancelToken cancel;
    };

    /** Worker thread body: pre-warm, signal ready, serve requests. */
    void workerMain(int workerIndex);

    /** Folds one observed queue sojourn into the EWMA (dispatch). */
    void noteSojourn(int64_t sojournUs);

    /** True when the adaptive sojourn gate says to shed right now. */
    bool sojournOverloaded(TimePoint now);

    /**
     * Serves one popped request — plus, when it can be pipelined, the
     * same-workload requests queued right behind it.
     */
    void dispatch(std::map<std::string, Replica> &replicas,
                  Request first);

    /**
     * Answers a canceled or queue-expired leader without running it.
     * Returns whether its key still needs a run: the leader is live,
     * or followers are parked behind it — their statuses depend only
     * on their own deadlines, never on the leader's.
     */
    bool prune(Request &request, TimePoint now);

    /**
     * Runs a group of distinct keys through exec::runPipelined, one
     * round at a time: the worker failpoints fire per request before
     * the run, successes complete, and every fault or failed episode
     * retries after a backoff with the rest of the round's failures,
     * replica rebuilt on a crash. A request past its retries is
     * answered stale or Failed.
     */
    void execute(Replica &replica, std::vector<Request> live,
                 int batchSize);

    /**
     * Caches an Ok score, ends the request's flight and answers the
     * leader (unless pruned) and every parked follower from
     * @p outcome. Execution started at @p start.
     */
    void complete(const Request &request, Response outcome,
                  TimePoint start);

    /**
     * Invokes a completion callback, containing anything it throws:
     * one misbehaving client must never kill a worker thread or
     * strand the requests it still owes answers.
     */
    void deliver(const std::string &workload, const Callback &done,
                 const Response &response);

    /** Builds one replica through the factory and runs its setUp. */
    Replica buildReplica(const std::string &name) const;

    /**
     * Supervisor: replaces a poisoned replica with a freshly built
     * one (same factory, same model seed — interchangeable by the
     * determinism contract). In-flight requests stay parked with the
     * worker, so no callback is dropped. A failed rebuild keeps the
     * old replica; the retry loop decides what happens next.
     */
    void rebuildReplica(const std::string &name, Replica &replica);

    /**
     * Leader-admission-failure hook: delivers @p status to every
     * parked follower (they were told Ok at submit, so the rejection
     * must reach them through their callbacks).
     */
    void abortFlight(const std::string &workload,
                     const std::string &key, RequestStatus status);

    ServerOptions options_;
    ServerMetrics metrics_;
    BoundedQueue<Request> admission_;
    std::unique_ptr<cache::ResultCache> cache_;
    cache::SingleFlight<Flight> flights_;
    /** Per-workload seedSensitive(), probed once at construction. */
    std::map<std::string, bool> seedSensitive_;
    std::vector<std::thread> workers_;
    std::atomic<uint64_t> nextId_{1};
    /** EWMA of observed queue sojourn in microseconds (alpha 1/8),
     *  updated by workers at dispatch; read by the adaptive gate. */
    std::atomic<int64_t> sojournEwmaUs_{0};
    /** Serve-clock microseconds when the EWMA first exceeded the
     *  target (0 = currently under target). */
    std::atomic<int64_t> sojournAboveSinceUs_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> joined_{false};
    std::mutex readyMu_;
    std::condition_variable readyCv_;
    int readyWorkers_ = 0;
};

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_SERVER_HH
