/**
 * @file
 * Request/response types of the serving runtime.
 *
 * A request names a workload, carries the seed of the episode stream
 * it wants evaluated, and optionally a completion deadline. The
 * response reports the score plus the latency decomposition the
 * paper's serving analysis needs: end-to-end latency, queue wait,
 * service time, and the profiler's neural/symbolic phase split.
 */

#ifndef NSBENCH_SERVE_REQUEST_HH
#define NSBENCH_SERVE_REQUEST_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace nsbench::serve
{

/** Monotonic clock all serving timestamps use. */
using ServeClock = std::chrono::steady_clock;

/** A time point on the serving clock. */
using TimePoint = ServeClock::time_point;

/** Sentinel deadline meaning "no deadline". */
inline TimePoint
noDeadline()
{
    return TimePoint::max();
}

/** Terminal state of a request. */
enum class RequestStatus
{
    Ok,                     ///< Executed; the response carries a score.
    RejectedQueueFull,      ///< Backpressure: admission queue was full.
    RejectedDeadline,       ///< Deadline already expired at admission.
    RejectedShutdown,       ///< Server draining or stopped.
    RejectedUnknownWorkload,///< Workload not served by this server.
    RejectedOverload,       ///< Shed at admission by the overload gate.
    Expired,                ///< Admitted, but the deadline passed in queue.
    Failed,                 ///< Execution failed after every retry.
    /**
     * The network layer could not reach a server at all: a remote
     * submit failed to connect (after the client's reconnect
     * attempts). Counted as an admission-time rejection — the
     * request never entered a queue.
     */
    RejectedUnreachable,
    /**
     * The submitter abandoned the request while it was queued (its
     * client sent a wire Cancel) and the server pruned it before
     * execution. A terminal post-admission outcome like Expired, not
     * an admission rejection: the callback still fires exactly once,
     * with this status. Appended last so earlier statuses keep their
     * wire numbering across protocol versions.
     */
    Canceled,
};

/** Short stable name for reports and CSV. */
const char *statusName(RequestStatus status);

/** True for the admission-time rejection statuses. */
inline bool
isRejection(RequestStatus status)
{
    return status == RequestStatus::RejectedQueueFull ||
           status == RequestStatus::RejectedDeadline ||
           status == RequestStatus::RejectedShutdown ||
           status == RequestStatus::RejectedUnknownWorkload ||
           status == RequestStatus::RejectedOverload ||
           status == RequestStatus::RejectedUnreachable;
}

/**
 * Completion record delivered to the request's callback. For Ok
 * responses every field is set; Expired responses carry timing but
 * no score. Requests rejected at submit() never reach a callback
 * (submit reports the rejection synchronously) — with one exception:
 * a request admitted as a single-flight follower (submit returned
 * Ok) receives a rejection-status response through its callback if
 * its leader subsequently failed admission.
 */
struct Response
{
    RequestStatus status = RequestStatus::Ok;
    double score = 0.0;          ///< Workload score; pure in (model, seed).
    double latencySeconds = 0.0; ///< Submit -> completion.
    double queueSeconds = 0.0;   ///< Submit -> execution start.
    double serviceSeconds = 0.0; ///< run() wall time of the execution.
    double neuralSeconds = 0.0;  ///< Profiler neural-phase op time.
    double symbolicSeconds = 0.0;///< Profiler symbolic-phase op time.
    int batchSize = 0;           ///< Requests in the dispatched group.
    int shared = 0;              ///< Requests sharing this execution.
    bool cached = false;         ///< Served from the result cache.
    bool stale = false;          ///< Cache fallback after a failed run.
    bool pipelined = false;      ///< Ran in a stage-pipelined group.
    int retries = 0;             ///< Failed attempts before this outcome.
};

/** Completion callback; invoked exactly once per admitted request. */
using Callback = std::function<void(const Response &)>;

/**
 * Shared cancellation flag. The submitter creates it, passes it to
 * submit(), and may set it at any time afterwards; workers check it
 * when they pick the request up and answer Canceled instead of
 * running it, and a parked single-flight follower is answered
 * Canceled when its leader lands. Advisory: a request already
 * executing (or served from cache) completes normally.
 */
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/** One admitted in-flight request. */
struct Request
{
    uint64_t id = 0;
    std::string workload;
    uint64_t seed = 0;
    TimePoint enqueue{};
    TimePoint deadline = TimePoint::max();
    Callback done;
    CancelToken cancel; ///< Null when the request is not cancelable.
    /** Single-flight key: (workload, model seed, effective seed). A
     *  queued request is the leader of its key's flight. */
    std::string key;
    /** The leader was answered Canceled/Expired while its flight
     *  stays open to run for the followers parked behind it. */
    bool pruned = false;
};

/** Seconds between two serve-clock points. */
inline double
secondsBetween(TimePoint from, TimePoint to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_REQUEST_HH
