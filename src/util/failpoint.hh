/**
 * @file
 * Deterministic fault-injection registry.
 *
 * A failpoint is a named site in the code that asks "should I fail
 * right now?". Sites are armed by a spec — the NSBENCH_FAILPOINTS
 * environment variable or `nsbench ... --faults SPEC` — of the form
 *
 *     site=prob[@seed][xLIMIT][sSKIP][~DELAYus][,site=...]
 *
 * e.g. `serve.worker.run=0.1@7x20s2`: the site fires on 10% of its
 * evaluations, drawn from an RNG seeded with 7, at most 20 times,
 * never on its first 2 evaluations. Omitted fields default to a
 * seed derived from the site name, no fire limit, and no skip.
 *
 * A `~DELAY` suffix turns the site's action from *fail* into *delay*:
 * a firing evaluation sleeps for DELAY microseconds and then reports
 * "no fault" to the caller (e.g. `net.read=0.05@11~20000` makes 5% of
 * reads 20ms slow instead of failing them). This models the harder
 * failure mode — the peer that is slow, not dead — with the same
 * deterministic schedule: whether the k-th evaluation fires is still
 * a pure function of the spec; only the action changes.
 *
 * Determinism: each site owns a private RNG seeded only by its spec,
 * and the k-th *evaluation* of a site consumes the k-th draw of that
 * stream. The fault schedule — the set of evaluation indices that
 * fire — is therefore an exact function of the spec, independent of
 * thread interleavings, wall time, or what other sites do. (Under
 * concurrency, *which request* lands on a firing evaluation can vary
 * between runs; which evaluations fire cannot.)
 *
 * When no spec is configured the registry is disarmed and the
 * NSBENCH_FAILPOINT macro is a single relaxed atomic load — the
 * serving hot paths pay no RNG, no lock, and change no behaviour.
 *
 * Site names live in failpoints::sites so the CLI can validate specs
 * and the docs can enumerate them; configure() rejects unknown names.
 */

#ifndef NSBENCH_UTIL_FAILPOINT_HH
#define NSBENCH_UTIL_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nsbench::util::failpoints
{

/** The catalog of failpoint sites threaded through the library. */
namespace sites
{
/** BoundedQueue::tryPush reports a transient full queue. */
inline constexpr const char *kQueueTryPush = "serve.queue.trypush";
/** BoundedQueue::pop stalls briefly before dequeuing. */
inline constexpr const char *kQueuePop = "serve.queue.pop";
/** Server::submit sheds the request as overload (RejectedOverload). */
inline constexpr const char *kAdmissionShed = "serve.admission.shed";
/** Worker run() attempt fails transiently (retry path). */
inline constexpr const char *kWorkerRun = "serve.worker.run";
/** Worker replica is poisoned (supervisor replacement path). */
inline constexpr const char *kWorkerCrash = "serve.worker.crash";
/** Completion callback throws after delivering (containment path). */
inline constexpr const char *kCallback = "serve.callback";
/** ResultCache::insert drops the entry (next lookup misses). */
inline constexpr const char *kResultInsert = "cache.result.insert";
/** TCP front end drops a freshly accepted connection. */
inline constexpr const char *kNetAccept = "net.accept";
/** TCP front end treats a socket read as failed (connection closes). */
inline constexpr const char *kNetRead = "net.read";
/** TCP front end treats a socket write as failed (connection closes). */
inline constexpr const char *kNetWrite = "net.write";
/** Client connect() attempt to a server fails (the client's
 *  reconnect/backoff path; once exhausted, a submit answers
 *  RejectedUnreachable). */
inline constexpr const char *kNetBackendConnect = "net.backend.connect";
/** Slow-worker site: the server's dispatch evaluates it for each
 *  request of every execution round, before the run, so a firing
 *  `~DELAY` lands inside that request's service time (a
 *  slow-not-dead server). Only meaningful with a `~DELAY` action. */
inline constexpr const char *kWorkerDelay = "serve.worker.delay";
} // namespace sites

/** Every site name configure() accepts, in catalog order. */
const std::vector<std::string> &knownSites();

/** Parsed per-site schedule parameters. */
struct SiteSpec
{
    double probability = 0.0; ///< Fire chance per evaluation, [0, 1].
    uint64_t seed = 0;        ///< Site RNG seed (0 -> name-derived).
    uint64_t limit = 0;       ///< Max fires; 0 -> unbounded.
    uint64_t skip = 0;        ///< Evaluations that can never fire.
    /** When nonzero the site's action is a sleep of this many
     *  microseconds instead of a reported failure. */
    uint64_t delayUs = 0;
};

/** Point-in-time counters for one configured site. */
struct SiteStats
{
    uint64_t evaluations = 0; ///< Times the site was asked.
    uint64_t fires = 0;       ///< Times it answered "fail".
    uint64_t delays = 0;      ///< Fires that slept instead.
    uint64_t delayedUs = 0;   ///< Total injected sleep, microseconds.
};

/**
 * Parses @p spec without touching the live registry.
 * @return empty string on success, else a human-readable error. On
 *         success @p out (when non-null) receives the parsed sites.
 */
std::string parse(const std::string &spec,
                  std::map<std::string, SiteSpec> *out);

/**
 * Arms the registry from @p spec, replacing any previous
 * configuration (all site RNGs and counters restart from scratch —
 * reconfiguring with the same spec reproduces the same schedule).
 * An empty spec disarms. Thread-safe.
 * @return empty string on success, else the parse error (the
 *         registry is left unchanged on error).
 */
std::string configure(const std::string &spec);

/**
 * Arms from NSBENCH_FAILPOINTS if set; a malformed value warns and
 * leaves the registry disarmed (library init must not die on env).
 */
void configureFromEnv();

/** Disarms and clears every site. */
void reset();

/** Per-site evaluation/fire counters for the current configuration. */
std::map<std::string, SiteStats> stats();

namespace detail
{
/** Set iff at least one site is configured. Written under the
 *  registry mutex; read lock-free on every evaluation. */
extern std::atomic<bool> gArmed;
} // namespace detail

/** True when any site is configured (the macro's fast gate). */
inline bool
armed()
{
    return detail::gArmed.load(std::memory_order_relaxed);
}

/**
 * Slow path behind NSBENCH_FAILPOINT: consumes one draw of the
 * site's RNG stream and reports whether this evaluation fires.
 * Unconfigured sites never fire (and are not counted). A firing
 * evaluation of a `~DELAY` site sleeps (outside the registry lock)
 * and returns false — the caller proceeds normally, just late.
 */
bool evaluate(const char *site);

} // namespace nsbench::util::failpoints

/**
 * `if (NSBENCH_FAILPOINT(sites::kWorkerRun)) { ...inject... }`
 * Disarmed cost: one relaxed atomic load, no call.
 */
#define NSBENCH_FAILPOINT(site)                                        \
    (nsbench::util::failpoints::armed() &&                             \
     nsbench::util::failpoints::evaluate(site))

#endif // NSBENCH_UTIL_FAILPOINT_HH
