/**
 * @file
 * Built-in load generator for the serving runtime.
 *
 * Two driving disciplines, matching the standard serving-evaluation
 * methodology:
 *
 *  - Open loop: a single dispatcher thread submits requests on a
 *    Poisson arrival process at a configured offered rate,
 *    independent of completions — the discipline that exposes
 *    queueing delay and tail latency under overload.
 *  - Closed loop: N client threads each keep exactly one request in
 *    flight, submitting the next the moment the previous completes —
 *    the discipline that measures sustainable throughput.
 *
 * Request seeds draw from a bounded seed universe under an optional
 * Zipf popularity skew, modelling the repeated-query locality that
 * makes single-flight sharing effective for seed-sensitive
 * workloads; the workload of each request draws from a configurable
 * mix.
 */

#ifndef NSBENCH_SERVE_LOADGEN_HH
#define NSBENCH_SERVE_LOADGEN_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.hh"
#include "util/rng.hh"

namespace nsbench::serve
{

/**
 * Samples seeds from a bounded universe with Zipf popularity skew:
 * rank r (1-based) is drawn with probability proportional to r^-s.
 * Precomputes the CDF once; each sample is a binary search. Public
 * so its empirical rank frequencies are unit-testable — the result
 * cache's hit rate is only as real as this distribution.
 */
class ZipfSeedSampler
{
  public:
    ZipfSeedSampler(uint64_t universe, double exponent)
        : universe_(universe)
    {
        if (universe_ == 0 || exponent <= 0.0)
            return;
        cdf_.reserve(universe_);
        double total = 0.0;
        for (uint64_t rank = 1; rank <= universe_; ++rank) {
            total += std::pow(static_cast<double>(rank), -exponent);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
    }

    /** Draws the next seed; @p fallback numbers unique requests. */
    uint64_t
    sample(util::Rng &rng, uint64_t fallback) const
    {
        if (universe_ == 0)
            return fallback;
        if (cdf_.empty())
            return static_cast<uint64_t>(rng.uniformInt(
                0, static_cast<int64_t>(universe_) - 1));
        double u = rng.uniformDouble();
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<uint64_t>(it - cdf_.begin());
    }

  private:
    uint64_t universe_;
    std::vector<double> cdf_;
};

/**
 * What the load generator drives: anything that accepts serve
 * requests and answers each admitted one with exactly one callback.
 * Two implementations matter — an in-process serve::Server (the
 * ServerTarget adapter below) and a server in another process behind
 * the wire protocol (net::RemoteTarget). The interface mirrors
 * Server's submit/call contract exactly: a non-Ok submit return means
 * the callback will never fire.
 */
class LoadTarget
{
  public:
    virtual ~LoadTarget() = default;

    /** Workload names requests may draw from (the default mix). */
    virtual std::vector<std::string> servedWorkloads() const = 0;

    /** Async submit; callback fires exactly once iff this returns Ok. */
    virtual RequestStatus submit(const std::string &workload,
                                 uint64_t seed, Callback done,
                                 TimePoint deadline) = 0;

    /** Blocking convenience wrapper: submit and wait for completion. */
    virtual Response call(const std::string &workload, uint64_t seed,
                          TimePoint deadline) = 0;
};

/** LoadTarget over an in-process serve::Server. */
class ServerTarget : public LoadTarget
{
  public:
    explicit ServerTarget(Server &server) : server_(server) {}

    std::vector<std::string>
    servedWorkloads() const override
    {
        return server_.workloads();
    }

    RequestStatus
    submit(const std::string &workload, uint64_t seed, Callback done,
           TimePoint deadline) override
    {
        return server_.submit(workload, seed, std::move(done),
                              deadline);
    }

    Response
    call(const std::string &workload, uint64_t seed,
         TimePoint deadline) override
    {
        return server_.call(workload, seed, deadline);
    }

  private:
    Server &server_;
};

/** Load-generation knobs. */
struct LoadgenOptions
{
    bool openLoop = true;        ///< Poisson arrivals vs closed loop.
    double rateHz = 200.0;       ///< Offered rate (open loop only).
    int clients = 4;             ///< In-flight requests (closed loop).
    double durationSeconds = 2.0;///< Submission window length.
    uint64_t seed = 1;           ///< Generator seed (determinism).
    /** Distinct episode seeds drawn from; 0 -> every request unique. */
    uint64_t seedUniverse = 64;
    /** Zipf popularity exponent over the universe; 0 -> uniform. */
    double zipfExponent = 1.1;
    /** Per-request deadline in milliseconds; 0 -> none. */
    double deadlineMs = 0.0;
    /**
     * Workload mix as (name, weight) pairs; empty -> uniform over the
     * server's workloads.
     */
    std::vector<std::pair<std::string, double>> mix;
};

/** Aggregate outcome of one load-generation window. */
struct LoadgenReport
{
    double wallSeconds = 0.0;  ///< Submission window + drain time.
    uint64_t submitted = 0;    ///< submit() calls issued.
    uint64_t admitted = 0;     ///< Requests the server accepted.
    uint64_t completed = 0;    ///< Callbacks with status Ok.
    uint64_t expired = 0;      ///< Callbacks with status Expired.
    uint64_t failed = 0;       ///< Callbacks with status Failed.
    uint64_t rejected = 0;     ///< Admission-time rejections.
    double offeredRate = 0.0;  ///< submitted / window seconds.

    /** Completed requests per wall second. */
    double
    throughput() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(completed) / wallSeconds
                   : 0.0;
    }
};

/**
 * Drives @p target with the configured load, waits for every admitted
 * request to complete, and returns the aggregate report. For an
 * in-process server, latency tails accumulate in the server's own
 * metrics; a remote target keeps its own client-side tails.
 */
LoadgenReport runLoadgen(LoadTarget &target,
                         const LoadgenOptions &options);

/** Convenience overload for the in-process case. */
LoadgenReport runLoadgen(Server &server,
                         const LoadgenOptions &options);

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_LOADGEN_HH
